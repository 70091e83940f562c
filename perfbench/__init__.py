"""End-to-end and per-layer benchmark of the ``repro`` serving simulator
(run ``python3 perfbench/run.py --help``)."""
