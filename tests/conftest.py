import os
import sys

# Allow running the suite from a checkout without installing; the package is
# pure Python, so the source tree is importable as it stands.
try:
    import regspectra  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
