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

The `ambient_isogeny` digests (the seven p = 3 pairs and the p = 5
document) were re-pinned when a (num, den) antipode of a smooth
presentation became the JSON object {"num": ..., "den": [...]}, the
encoding of localized images, instead of a Python repr string.  Nothing
else in those documents moved: every other field was compared with the
old output and was identical.

The CLI digests of `phi` (closed form and --brute, JSON and --table, on
every p = 3 cell), `enumerate --m-max 3`, `ring-info` at p = 3 and
p = 5, and `hom --brute` on the 49 ordered pairs of p = 3 models were
recorded from the code before the models layer held a mod pi^n as a
ring element at precision n instead of a digit tuple: they pin how the
pi-adic digits of a class are printed and sorted.
"""

import hashlib
import json

import pytest

from p2models.cli import main
from p2models.dvr import QuotElement, make_ring
from p2models.models import (ModelDescriptor, ambient_isogeny, digit_string,
                             enumerate_models)
from p2models.poly import Poly

# model key "m,n,a" -> (verify --emit-presentation stdout, ambient pair)
GOLDEN = {
    "0,0,0": ("f7590841fa0e508c9b15bc2dcbe0d5c7c430e683d1da0ada31eb551d13964c6b",
              "361b68eb9af2a12eae501f476691fc0f2057f5bdaa808fa74f889ad59029709f"),
    "1,0,0": ("14697070c160b883efaa3c238c748f473b770bc64f157145e71e7df2368f38c1",
              "158eec49ded47765e826fd3c7092537febc324ce23ab88312bfe865bf6c09b4d"),
    "2,0,0": ("51783eb3680264482a674c6d691192093c2525ad721c0ad2e29c067438b77788",
              "2550bc13c012ad02573a4e6b720f3cb805e16df31ac1ccf89d840db8dc4d9dce"),
    "3,0,0": ("726f414c73d6408c12475df06c1ab29e6aae5d6c4194e5d20d28ae657d983bce",
              "9ee1d741ae56ece80680752e3f6a4d8b3716299be03761ef97410627a4e990f9"),
    "3,1,0": ("1ea6180db570901dbe3b58ded159945889bcc6935424605976d91a58925ec6ed",
              "f7e0487671b319d7f38f3514baac5d014ab92ca92f581a495da0f83518ba9821"),
    "3,2,0.1": ("4b6488cc641bf56b46d20d1490c96423839fa29df6fd762b82b77fa3e6ba4ba1",
                "c8b557db5f361c77e5b6d056243ae75b59dcf8548bd111d0fa05b46e4840e59f"),
    "3,3,0.1.1": ("abd26221fbc88417f0c42d26194ba33bbb99dfe31ad9095417d9fa64a58c5298",
                  "9ffef43b4694193b64d2f1c7a43e3ade4d4f53f741928b188ab90606be7b54b7"),
}

AMBIENT_P5 = "06f80f999cbec27e770074c8a6fd640f69cf86c6313e5d6c0adfd24a8ed7dde1"

DUMP_SERIES = {
    "--p 3 --degree 27":
        "32f5ab234cfc7ec9838324467352bd81857a3789ee3cbad5aa8cddcf8cddd226",
    "--p 3 --degree 27 --deformed":
        "0eb05973809066bf75f7e78737dc7d9779beb8b572121e48606b815308a81ecc",
    "--p 5 --degree 25 --deformed":
        "42e866a97bfa861b2547349ee0993e72d75f9e8a4a41a125ae7fb03efdcf122e",
}

# cell "m,n" -> phi output: closed JSON, closed --table, --brute JSON,
# --brute --table, concatenated
PHI = {
    "0,0": "dd6138d55d9590f3de9e77be16eb74ceafab3c9378c1840ba0e6318ae5306bcb",
    "1,0": "fabb959026b35fa0e69ab101c23da8af874dbb4b2e2327aafd8408b1b4b03190",
    "1,1": "6cd76831ab9447b7afc292e94538c26acf7f2511de76b3ab6e723526513f7cdb",
    "2,0": "1c1aa1a129a3f07546ba40dd9ad5ec988231bd0b8ea9c579cf0659fe54c39926",
    "2,1": "dd21cdc84afa8dbd12a2472cdbe3525c212bb693769d945c670b19aabd7dce4e",
    "2,2": "487ab3a0d599f447741bf32bcc76f63f5d0814de679cfaabba6e2e189cad52e6",
    "3,0": "6dc0c22966bb1c19764de51e5ca8c82b1dc66640adbd69fcadccdf3953228d2a",
    "3,1": "93e7b78c568effbd4300af2c69450e0bae331ae12076872499226b0718965a2b",
    "3,2": "456ad93b565c94260605d96b6fcc1062f019f5720bc7fea4506bbc3f5ca6f1c2",
    "3,3": "82d171d6bf8e4607d56060b8b7955cc0b0968434cee65fcd45ebb6d84762d393",
}

# enumerate --m-max 3, JSON then --table
ENUMERATE = "86eee302e273ce192b1939ad4d7023227df0d59d20d42197bb8281532c3476c7"

# ring-info, JSON then --table
RING_INFO = {
    3: "3e92df10c843c99c82e10fd92c4360612f2f5f58e79ed95f9616698c95b11e1d",
    5: "80e8046d0f61a96743b98d4513c5e2056630bb9e7eaac66f7ad5a366877d59a9",
}

# hom --brute on every ordered pair of p = 3 models, in enumeration order
HOM_BRUTE = "7147be33105e2269a94a0a8282dda8810b9c958168d972712103e71b7df49038"

MODELS = {f"{d.m},{d.n},{digit_string(d.a)}": d
          for d in enumerate_models(make_ring(3, 12), 3)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(capsys, *argvs) -> str:
    """The stdout of the CLI runs, concatenated; each must exit 0."""
    out = ""
    for argv in argvs:
        assert main(argv) == 0, argv
        out += capsys.readouterr().out
    return out


@pytest.mark.parametrize("cell", sorted(PHI))
def test_phi_golden(cell, capsys):
    m, n = cell.split(",")
    argv = ["phi", "--m", m, "--n", n]
    out = _stdout(capsys, argv, argv + ["--table"], argv + ["--brute"],
                  argv + ["--brute", "--table"])
    assert _sha(out) == PHI[cell]


def test_enumerate_golden(capsys):
    argv = ["enumerate", "--m-max", "3"]
    assert _sha(_stdout(capsys, argv, argv + ["--table"])) == ENUMERATE


@pytest.mark.parametrize("p", sorted(RING_INFO))
def test_ring_info_golden(p, capsys):
    argv = ["ring-info", "--p", str(p)]
    assert _sha(_stdout(capsys, argv, argv + ["--table"])) == RING_INFO[p]


def test_hom_brute_golden(capsys):
    models = [json.dumps(d.to_json()) for d in MODELS.values()]
    out = _stdout(capsys, *(["hom", "--left", a, "--right", b, "--brute"]
                            for a in models for b in models))
    assert _sha(out) == HOM_BRUTE


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


def test_no_emitted_antipode_is_a_string(capsys):
    # a (num, den) antipode is emitted as {"num": ..., "den": [...]}
    for key, d in MODELS.items():
        assert main(["verify", "--descriptor", json.dumps(d.to_json()),
                     "--emit-presentation"]) == 0
        emitted = [json.loads(capsys.readouterr().out)["presentation"]]
        src, tgt, _ = ambient_isogeny(d)
        for pres in (src, tgt):
            doc = pres.to_json()
            emitted.append(doc)
            for a, enc in zip(pres.antipode, doc["antipode"]):
                if isinstance(a, tuple):
                    assert enc == {"num": a[0].to_json(), "den": list(a[1])}
        for doc in emitted:
            assert not any(isinstance(a, str) for a in doc["antipode"]), key
