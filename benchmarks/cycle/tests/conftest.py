"""The harness modules import each other by bare name, as ``run.py`` sees
them when it is run as a script."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
