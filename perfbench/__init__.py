"""Layer-attributed benchmark for the WANify service (see README.md)."""
