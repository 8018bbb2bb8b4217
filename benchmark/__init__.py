"""Benchmark harness for the moebius package; entry point ``run.py``."""
