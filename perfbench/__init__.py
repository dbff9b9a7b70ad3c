"""A benchmark of the checker, end to end and layer by layer (see run.py)."""
