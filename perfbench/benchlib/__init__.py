"""The repository benchmark's own library (see ``perfbench/README.md``).

Nothing here is imported by the program under test: the benchmark
drives the public entry points of the ``repro.*`` layers and wraps them
from the outside when it traces.
"""
