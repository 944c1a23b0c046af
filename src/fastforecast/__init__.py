"""Crypto close-price forecasting with linear-attention models.

Feature extraction with classic technical indicators, a random-feature
(FAVOR+) linear-attention encoder with an exact softmax-attention oracle,
BiLSTM + fully-connected heads, and a training/evaluation harness, all on
a small float64 autodiff tape.
"""

__version__ = "0.1.0"
