"""Benchmark of the OctopusFS reproduction: see README.md here."""
