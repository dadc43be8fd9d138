"""End-to-end benchmark of the measurement pipeline (see README.md)."""
