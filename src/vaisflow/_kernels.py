"""Whether numba is importable, for the benchmark's details line only.

No code in :mod:`vaisflow` reads this; the flow has one numpy path.
"""

import importlib.util

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
