"""nomabeam: link-level simulator for a beam-steered mmWave multi-user downlink.

A base station with a uniform planar array steers one beam per cluster of
users; strongly interfering users are paired two-by-two onto shared beams and
separated in the power domain, with a closed-form optimal intra-cluster power
split under full or direction-only channel feedback.  Seeded Monte Carlo
sweeps compare the scheme against one-beam-per-user steering, orthogonal beam
sharing, and conjugate beamforming.
"""

__version__ = "0.1.0"
