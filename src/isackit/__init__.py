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

Importing the package loads no submodule; import each one by name
(`import isackit.metrics`, `from isackit.cli import main`). Nothing here pins
BLAS threads: numpy's BLAS picks its own thread count unless the environment
(e.g. OPENBLAS_NUM_THREADS) sets one before numpy loads.
"""

__version__ = "0.1.0"
