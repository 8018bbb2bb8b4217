"""Tests of the benchmark harness itself."""
