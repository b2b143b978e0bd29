"""HeadTalk gate benchmark: see ``perfbench/README.md`` and ``run.py``."""
