"""Golden outputs of the presentation builders.

The sha256 digests were recorded from the code before the finite and
smooth extension builders shared their comultiplication.  They pin the
exact JSON, per-coefficient precisions included, of
`verify --emit-presentation` and of the source and target presentations
of `ambient_isogeny` on the seven p = 3 models with m <= 3.  A precision
drift in any coefficient changes a digest even when every axiom check
still passes.  One more digest, recorded from the code before the packed
polynomial product, pins the source, target and images of
`ambient_isogeny` at p = 5 on (m, n, a, j) = (3, 3, pi^2, 0).  The
`dump-series` digests were recorded from the code before the truncated
series became Polys in T.
"""

import hashlib
import json

import pytest

from p2models.cli import main
from p2models.dvr import QuotElement, make_ring
from p2models.models import ModelDescriptor, ambient_isogeny, enumerate_models
from p2models.poly import Poly

# model key "m,n,a" -> (verify --emit-presentation stdout, ambient pair)
GOLDEN = {
    "0,0,0": ("f7590841fa0e508c9b15bc2dcbe0d5c7c430e683d1da0ada31eb551d13964c6b",
              "95fda969a8c8a47b1ebba9887d8066b7f2b1e35080009488290d6280f80ccc1c"),
    "1,0,0": ("14697070c160b883efaa3c238c748f473b770bc64f157145e71e7df2368f38c1",
              "e5cee46d5fe55ed40bdb561fbd9a88bd88363a459a1b0e30e23b453ddfafa767"),
    "2,0,0": ("51783eb3680264482a674c6d691192093c2525ad721c0ad2e29c067438b77788",
              "0aab0eede36b6762bddf02a654a5ab0bfec6c9ba2f64210e5c8b7f9c0fcb2bfe"),
    "3,0,0": ("726f414c73d6408c12475df06c1ab29e6aae5d6c4194e5d20d28ae657d983bce",
              "cf2f7eea318fc8ec27be1edafe7bde650063d5f54a42fb158cf1e1e22f747cbc"),
    "3,1,0": ("1ea6180db570901dbe3b58ded159945889bcc6935424605976d91a58925ec6ed",
              "fd73240d1f583694b6d43bcca03301bca3e9229929aa7be809581798433d41d9"),
    "3,2,0.1": ("4b6488cc641bf56b46d20d1490c96423839fa29df6fd762b82b77fa3e6ba4ba1",
                "a6b960acae35cf154c9c64c17d358ec6877861a1528ba51c46a7343fde2d9baa"),
    "3,3,0.1.1": ("abd26221fbc88417f0c42d26194ba33bbb99dfe31ad9095417d9fa64a58c5298",
                  "5aa96123a1ecd178ad87a5dcaf62c4a86a8076088c0889bf24b5979c0b696529"),
}

AMBIENT_P5 = "8aa26db48254e8e8bf9e523db1f94777a9952784e6ae21b16428c0d124b6c19d"

DUMP_SERIES = {
    "--p 3 --degree 27":
        "32f5ab234cfc7ec9838324467352bd81857a3789ee3cbad5aa8cddcf8cddd226",
    "--p 3 --degree 27 --deformed":
        "0eb05973809066bf75f7e78737dc7d9779beb8b572121e48606b815308a81ecc",
    "--p 5 --degree 25 --deformed":
        "42e866a97bfa861b2547349ee0993e72d75f9e8a4a41a125ae7fb03efdcf122e",
}

MODELS = {f"{d.m},{d.n},{d.a.digit_string() or '0'}": d
          for d in enumerate_models(make_ring(3, 12), 3)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_model():
    assert sorted(MODELS) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_emitted_presentation_golden(key, capsys):
    code = main(["verify", "--descriptor", json.dumps(MODELS[key].to_json()),
                 "--emit-presentation"])
    assert code == 0
    assert _sha(capsys.readouterr().out) == GOLDEN[key][0]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_ambient_isogeny_presentations_golden(key):
    src, tgt, _ = ambient_isogeny(MODELS[key])
    pair = json.dumps([src.to_json(), tgt.to_json()], sort_keys=True)
    assert _sha(pair) == GOLDEN[key][1]


def test_ambient_isogeny_p5_golden():
    R = make_ring(5, 8)
    d = ModelDescriptor(R, 3, 3, QuotElement(R, 3, (0, 0, 1)), 0)
    src, tgt, f = ambient_isogeny(d)
    images = [x.to_json() if isinstance(x, Poly)
              else {"num": x.num.to_json(), "den": list(x.den)}
              for x in f.images]
    doc = json.dumps([src.to_json(), tgt.to_json(), images], sort_keys=True)
    assert _sha(doc) == AMBIENT_P5


@pytest.mark.parametrize("args", sorted(DUMP_SERIES))
def test_dump_series_golden(args, capsys):
    assert main(["dump-series", *args.split()]) == 0
    assert _sha(capsys.readouterr().out) == DUMP_SERIES[args]
