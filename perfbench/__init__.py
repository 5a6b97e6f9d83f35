"""Benchmark harness for the FleetIO simulator (see README.md)."""
