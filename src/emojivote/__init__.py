"""Multilingual emoji prediction: n-gram features, MNB/LR/RF base
classifiers, SMOTE oversampling, and two-level weighted soft voting."""
