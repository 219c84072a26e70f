"""Load hypothesis' failure-report module once, before any test runs.

When a ``@given`` test fails, hypothesis' pytest plugin imports
``hypothesis.extra._patching`` to write the falsifying example as a patch.
That module imports libcst, which uses the deprecated
``mypy_extensions.TypedDict``. Under ``filterwarnings = ["error"]`` the
warning, raised inside the plugin's report hook, becomes an INTERNALERROR that
ends the session and hides the example. Importing the module here, with
``DeprecationWarning`` ignored for this import only, leaves every warning an
error inside the tests. Without libcst the import fails, and the plugin then
skips the patch and still prints the example.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
