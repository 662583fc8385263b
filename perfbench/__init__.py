"""End-to-end fuzzing benchmark (see run.py)."""
