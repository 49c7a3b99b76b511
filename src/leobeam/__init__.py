"""leobeam: desk-scale simulator for coordinated multi-satellite downlink beamforming.

Modules
-------
channel      Shadowed-Rician channel synthesis (path loss, beam pattern, fading).
beamform     Weighted-sum-rate evaluation and classical precoding baselines.
gnn          Graph-neural beamformer: parameters, forward pass, complexity counts.
train        Unsupervised training loop with hand-written reverse-mode gradients.
accel        Behavioral fixed-point systolic-array accelerator model.
experiments  Config files, experiment drivers, CSV artifacts.
cli          Command-line front end.
"""

__version__ = "0.1.0"

# Revision of the numerics: raised whenever a change moves the bits of the
# channel, rate or training arithmetic, so cached results can tell.  2: numpy
# Bessel functions J1/J3, log1p rates, matmul rate gradient.  3: training in
# float32.  4: MMSE beam power summed as re^2 + im^2, as the network's.
NUMERICS = 4

from . import accel, beamform, channel, experiments, gnn, train  # noqa: F401
