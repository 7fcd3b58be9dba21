"""Module boundaries: every library entry point applies the one count rule
of ``tiltvae._fields``, and no module imports another's private names."""

import ast
import pathlib
import re

import numpy as np
import pytest

from tiltvae.data import blob_preset, gen_blobs, gen_constant, gen_noise
from tiltvae.errors import DomainError
from tiltvae.sampler import rng_stream
from tiltvae.tilted import verify_bound_sweep
from tiltvae.vae import StandardGaussian, build_model, score_arrays

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tiltvae"
_BLOBS = blob_preset("two", 4, 4)


def _score(draws):
    model = build_model(rng_stream(0), 4, 2, StandardGaussian(), hidden=(3,))
    return score_arrays(model, np.zeros((1, 4)), draws=draws, rng=rng_stream(1))


# Each call once failed in numpy with a TypeError or returned an empty dataset.
@pytest.mark.parametrize("call,name,lowest", [
    (lambda: gen_noise(rng_stream(0), 2.5, 4, 4), "n", 1),
    (lambda: gen_noise(rng_stream(0), 2, 0, 4), "h", 1),
    (lambda: gen_noise(rng_stream(0), 2, 4, 4, c=0), "c", 1),
    (lambda: gen_constant(rng_stream(0), 2, 0, 4), "h", 1),
    (lambda: gen_blobs(rng_stream(0), 0, 4, 4, _BLOBS), "n", 1),
    (lambda: gen_blobs(rng_stream(0), 2.5, 4, 4, _BLOBS), "n", 1),
    (lambda: verify_bound_sweep([2], [0], 2.5, 1.0), "mu_points", 2),
    (lambda: _score(2.5), "draws", 0),
], ids=["noise-n", "noise-h", "noise-c", "constant-h", "blobs-n0", "blobs-n", "sweep-points",
        "score-draws"])
def test_entry_point_refuses_a_count_naming_it(call, name, lowest):
    with pytest.raises(DomainError, match=re.escape(f"expected an integer {name} >= {lowest}, "
                                                    f"got {name}=")):
        call()


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno}: {alias.name} from .{node.module or ''}"
                          for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []
