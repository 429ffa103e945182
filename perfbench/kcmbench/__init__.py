"""The repository benchmark: closed-loop workloads over the public
``repro`` API, an output check against the seed interpreter, and a
traced run that splits each operation into layers.

Run it through ``perfbench/run.py``; see ``perfbench/README.md``.
"""
