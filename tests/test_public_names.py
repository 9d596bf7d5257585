"""Every name the package exports resolves.

A class or function deleted from a module must leave `versal.__all__` with
it, or `from versal import *` fails on the stale name.
"""

import versal


def test_every_exported_name_resolves():
    assert versal.__all__
    missing = [name for name in versal.__all__
               if getattr(versal, name, None) is None]
    assert missing == []
