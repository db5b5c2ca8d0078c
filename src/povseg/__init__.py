"""Personalized open-vocabulary segmentation head over frozen snapshots."""

__version__ = "0.1.0"
