"""isackit: integrated sensing and communication design toolkit.

Submodules
----------
channel           steering vectors, Rician channels, channel aging
metrics           MUI, SINR/sum rate, beampatterns, GLRT/ROC, MI/MMSE
classical_design  closed-form and exact-solver waveform baselines
neural            minimal dense-network engine (forward/backward/Adam/train)
waveform_learn    unsupervised waveform network (features, projection, loss)
hybrid_pga        projected gradient ascent hybrid beamforming + unrolling
constellation_ae  autoencoder constellation design with a radar detector head
cli               seeded experiment runner writing CSV artifacts

Submodules are imported lazily, on first attribute access. Nothing here pins
BLAS threads: numpy's BLAS picks its own thread count unless the environment
(e.g. OPENBLAS_NUM_THREADS) sets one before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "channel",
    "metrics",
    "classical_design",
    "neural",
    "waveform_learn",
    "hybrid_pga",
    "constellation_ae",
    "cli",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
