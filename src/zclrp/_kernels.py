"""The name of the arithmetic backend.

Every ring and F2 operation of the package runs in pure Python on Python
ints; there is no compiled or alternative backend.  ``BACKEND_NAME`` names
it in ``zclrp --version`` and in benchmark provenance.
"""

BACKEND_NAME = "pure"
