"""Outside-in benchmark of NeaTS and its store; run ``perfbench/run.py``."""
