import sys
from pathlib import Path

# The benchmark drives this checkout's source tree, as run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
