"""scripts/output_digest.py: a tiny grid's digest is stable and sees one changed stored entry."""

import importlib.util
import os

import numpy as np

from braidosc import braid

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "output_digest.py")
_spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_digest_is_stable_and_sees_one_changed_entry(monkeypatch):
    first = output_digest.digest(3, 1)
    assert output_digest.digest(3, 1) == first

    family, edited = braid._family, []

    def one_entry_off(route, n, N, ctx, inverse, entries, *rest):
        # the first numeric family: its first stored entry moves by one ulp
        if ctx is not None and not edited:
            stored = entries[0]
            blocks = np.array(stored.blocks)
            blocks.flat[0] = np.nextafter(blocks.flat[0], np.inf)
            entries = [braid._BlockMatrix(stored.target, blocks), *entries[1:]]
            edited.append(route)
        return family(route, n, N, ctx, inverse, entries, *rest)

    monkeypatch.setattr(braid, "_family", one_entry_off)
    md5, count = output_digest.digest(3, 1)
    assert edited and count == first[1] and md5 != first[0]
