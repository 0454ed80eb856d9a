"""Byte-exact goldens: the sha256 of every diagram text the renderers print.

The digests pin the output of ``render_flow`` for every registered machine
and for five hand-built trees, and of ``render_base`` for every registered
leaf, for leaves with awkward labels, for leaves written as raw groups that
construction merges and deduplicates, and for names and labels that hold a
newline. Every digest the benchmark itself keeps is checked too: each
variant of its seeded random trees, and its registered flows and leaves,
so every supported Python checks them all. Any change to diagram text, down to one
byte, fails here; a deliberate change must update the digest.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

import crem
from crem import (
    Alternative,
    Basic,
    Feedback,
    Kleisli,
    Parallel,
    Sequential,
    render_base,
    render_flow,
    stateless,
)
from crem.cli import default_registry
from crem_harness import _leaf

REGISTRY = default_registry()


def _plain(name: str) -> Basic:
    return Basic(stateless(name, lambda value: [value]))


def all_kinds_tree():
    """All six node kinds, with an Alternative bracket inside a Parallel one
    and a composite second child, so representatives are not adjacent."""
    return Kleisli(
        Feedback(_leaf("fwd", (("A", ("B",)), ("B", ("A",))), "A"), _plain("bwd")),
        Sequential(
            Sequential(
                Parallel(Alternative(_plain("left"), _plain("right")), _plain("pair")),
                Alternative(_plain("x"), _leaf("y", (("Y0", ("Y1",)),), "Y1")),
            ),
            _plain("tail"),
        ),
    )


def awkward_tree():
    """Labels that need quoting, escaping, Mermaid id repair and a marker
    that has to step aside. The vertex ``-q`` of leaf ``sg`` repairs to the
    same Mermaid id as the cluster of leaf ``--q``, which comes later."""
    return Sequential(
        Parallel(
            _leaf('say "hi" \\ there', (('q"1', ("back\\slash",)),), 'q"1'),
            _leaf("a-b", (("x-y", ("x_y",)),), "x_y"),
        ),
        Kleisli(
            _leaf("a_b", (("1st", ("2nd",)), ("2nd", ("initial",))), "1st"),
            Alternative(
                _leaf("m", (("initial", ("__initial",)),), "initial"),
                Sequential(_leaf("sg", (("-q", ()),), "-q"), _plain("--q")),
            ),
        ),
    )


def escapes_tree():
    """The escape paths. Leaf ``q"\\`` with vertex ``b__c\\"`` and leaf
    ``q"\\__b`` with vertex ``c\\"`` print one DOT node id, so the later one
    is claimed; ``a-b``, ``a.b`` and ``a_b`` repair to one Mermaid id and take
    the ``_2`` and ``_3`` suffixes under a leaf name that starts with a digit;
    ``Zürich`` and ``café`` are not ASCII; ``d``, ``c\\"`` and ``café`` are
    sources with no targets."""
    return Sequential(
        Parallel(
            _leaf('q"\\', (('b__c\\"', ("d",)), ("d", ())), 'b__c\\"'),
            _leaf('q"\\__b', (('c\\"', ()),), 'c\\"'),
        ),
        Alternative(
            _leaf("9lives", (("a-b", ("a.b", "a_b")), ("a_b", ("Zürich",))), "a.b"),
            _leaf("ünï", (("café", ()), ("naïve", ("café",))), "naïve"),
        ),
    )


def newlines_tree():
    """Names and labels that hold a newline, which neither format escapes.
    Leaf ``two\\nlines`` holds one in its name and in its vertex ``a\\nb``;
    leaves ``name\\nonly`` and ``9\\n`` hold one only in their names, so
    each of their node ids carries it. The vertex ``initial`` of ``9\\n``
    pushes its DOT marker aside, and ``9\\n`` repairs to the Mermaid ids
    that leaf ``9_`` takes first."""
    return Sequential(
        _leaf("two\nlines", (("a\nb", ("c",)), ("c", ("a\nb", 'q"'))), "c"),
        Parallel(
            _leaf("name\nonly", (('x"', ("y\\",)), ("y\\", ())), 'x"'),
            Alternative(
                _leaf("9_", (("v", ()),), "v"),
                _leaf("9\n", (("v", ("1-2",)), ("1-2", ("initial",))), "v"),
            ),
        ),
    )


SHARED_TARGETS = ("r", "p")


def merged_tree():
    """Leaves written as raw groups: duplicate source groups, repeated targets,
    self-loops and list shapes. Leaf ``merged`` lists ``E`` in its merged ``A``
    group, so its vertex order (``A B E C D``) is not the order the groups were
    written in (``A B C D E``); leaves ``shared`` and ``shared2`` hand one
    targets tuple to two groups."""
    return Parallel(
        _leaf(
            "merged",
            (("A", ("B", "B")), ("C", ("D",)), ("A", ("E", "C", "A")), ("E", ("A", "A"))),
            "E",
        ),
        Sequential(
            _leaf("twice", [["x", ["y", "x", "y"]], ("y", ("z", "y")), ("x", ("w",))], "w"),
            Alternative(
                _leaf("shared", (("p", SHARED_TARGETS), ("q", SHARED_TARGETS)), "q"),
                _leaf("shared2", (("q", SHARED_TARGETS), ("p", ("q",)), ("q", SHARED_TARGETS)), "r"),
            ),
        ),
    )


def _registered_leaves():
    for name in sorted(REGISTRY):
        for leaf in REGISTRY[name].factory().leaves():
            yield f"{name}/{leaf.name}", leaf


def _cases():
    cases = {}
    for name in sorted(REGISTRY):
        cases[f"flow/{name}"] = lambda fmt, name=name: render_flow(REGISTRY[name].factory(), fmt)
    cases["flow/all-kinds"] = lambda fmt: render_flow(all_kinds_tree(), fmt)
    cases["flow/awkward"] = lambda fmt: render_flow(awkward_tree(), fmt)
    cases["flow/escapes"] = lambda fmt: render_flow(escapes_tree(), fmt)
    cases["flow/merged"] = lambda fmt: render_flow(merged_tree(), fmt)
    cases["flow/newlines"] = lambda fmt: render_flow(newlines_tree(), fmt)
    for key, leaf in _registered_leaves():
        cases[f"base/{key}"] = lambda fmt, leaf=leaf: render_base(leaf, fmt)
    for index, leaf in enumerate(awkward_tree().leaves()):
        cases[f"base/awkward/{index}"] = lambda fmt, leaf=leaf: render_base(leaf, fmt)
    for index, leaf in enumerate(escapes_tree().leaves()):
        cases[f"base/escapes/{index}"] = lambda fmt, leaf=leaf: render_base(leaf, fmt)
    for index, leaf in enumerate(merged_tree().leaves()):
        cases[f"base/merged/{index}"] = lambda fmt, leaf=leaf: render_base(leaf, fmt)
    for index, leaf in enumerate(newlines_tree().leaves()):
        cases[f"base/newlines/{index}"] = lambda fmt, leaf=leaf: render_base(leaf, fmt)
    return {
        f"{key}.{fmt}": (lambda render=render, fmt=fmt: render(fmt))
        for key, render in cases.items()
        for fmt in ("dot", "mermaid")
    }


CASES = _cases()

GOLDEN = {
    "base/awkward/0.dot":
        "8cfb078ca502ab89c6633449937133e342b8561fffa5247bfee2d8284641b45c",
    "base/awkward/0.mermaid":
        "a7ba6235a3896b52e48da0bd627190b6f44465167104db1c1646e44ccfda3c74",
    "base/awkward/1.dot":
        "84108e5d0f59b454a85711c053a5a6184693cd86d4321d55e03d6c845e35f64f",
    "base/awkward/1.mermaid":
        "c7957e460e6cb5618bf173482faa616d59cb738df86413cbfd294766cead8850",
    "base/awkward/2.dot":
        "027f5ec28d488461c33513c4985d88dd112a7b9d2afb35b21c84b3f491211b6d",
    "base/awkward/2.mermaid":
        "0fecdd66b659db21a23c6c8804749acf7fcb48fe2a40d7988cc786a86df85de5",
    "base/awkward/3.dot":
        "f73c72fde7ca11aea449764f2c7abf3378ca18b4179a1555eeef34261013ef09",
    "base/awkward/3.mermaid":
        "a0d393d3fb3dc814a23d96f5e156bd747b5d3af98a4cb3169fd4edd6d8e3eac7",
    "base/awkward/4.dot":
        "11fb6cf106e07501ad5846eb50e573b8701249ac145d2ef5f15497c994aec411",
    "base/awkward/4.mermaid":
        "8859a7ca713ff298b7f28f583f9948e1e06a81f050ba11312a32588de96f6cfd",
    "base/awkward/5.dot":
        "0a832f108f31d52aac07ac27827c517d5dd639342b6e32f974b2c9c17e8ab2bf",
    "base/awkward/5.mermaid":
        "709829d8f28d8a3e4d27178571ff9d4479853b5704a921a16123b225c1f721a4",
    "base/cart-and-shipping/cart.dot":
        "b41dd500907140b27a4acd6e9c2d6aa5e9456dcd96ccbc947cdecc46b440d408",
    "base/cart-and-shipping/cart.mermaid":
        "55d594146eac810da4181d6eb57970a4360937fa03cc0962bad968a6e2103e41",
    "base/cart-and-shipping/ignoreShippingEvents.dot":
        "c44703d87dea008f2833ea4a620f3d49206e457421742515086fb31b1859bdf8",
    "base/cart-and-shipping/ignoreShippingEvents.mermaid":
        "709829d8f28d8a3e4d27178571ff9d4479853b5704a921a16123b225c1f721a4",
    "base/cart-and-shipping/mergePolicyOutput.dot":
        "53c5e14752f8114ef19990ae95862e3985e9d6c1f3ab9e2cf5df9ff2500c442f",
    "base/cart-and-shipping/mergePolicyOutput.mermaid":
        "709829d8f28d8a3e4d27178571ff9d4479853b5704a921a16123b225c1f721a4",
    "base/cart-and-shipping/mergeViews.dot":
        "6ee141310f471f9c3b7035543c21d795a4ff7e827ff0e2764740b5ebd0738640",
    "base/cart-and-shipping/mergeViews.mermaid":
        "709829d8f28d8a3e4d27178571ff9d4479853b5704a921a16123b225c1f721a4",
    "base/cart-and-shipping/mergeWriteEvents.dot":
        "ebe021ff6e535a5b68bb935714baf90240759bc0cffc67682642dea58ff6aa37",
    "base/cart-and-shipping/mergeWriteEvents.mermaid":
        "709829d8f28d8a3e4d27178571ff9d4479853b5704a921a16123b225c1f721a4",
    "base/cart-and-shipping/paymentCompletePolicy.dot":
        "1cfece1a979bbfd3efab9c82757c0c861ab2db33b04756cf0e17b2e1b4507538",
    "base/cart-and-shipping/paymentCompletePolicy.mermaid":
        "709829d8f28d8a3e4d27178571ff9d4479853b5704a921a16123b225c1f721a4",
    "base/cart-and-shipping/paymentGateway.dot":
        "8b5305f5f252f30dacd8b13e1d7d38a746009fd0e31e1eb555423648360a3584",
    "base/cart-and-shipping/paymentGateway.mermaid":
        "709829d8f28d8a3e4d27178571ff9d4479853b5704a921a16123b225c1f721a4",
    "base/cart-and-shipping/paymentStatus.dot":
        "b7c3623762d2783609878b55a338f90fb168a9f1fcff2e826f98f9a714fb01bd",
    "base/cart-and-shipping/paymentStatus.mermaid":
        "43fefb0d3316a491d4f1fb72892123616678b2da36410eff90ea4a1998abae41",
    "base/cart-and-shipping/routeShippingCommands.dot":
        "1f7fc3e91a7f3bc42a503dcd850e996ec3e0948db1f60cb81fa2012c0bde3f1a",
    "base/cart-and-shipping/routeShippingCommands.mermaid":
        "709829d8f28d8a3e4d27178571ff9d4479853b5704a921a16123b225c1f721a4",
    "base/cart-and-shipping/shipping.dot":
        "60ee42c27f92d1c1005d19cef2f9d75ca856d065f3ca1a5bac4d6deb60df0dfb",
    "base/cart-and-shipping/shipping.mermaid":
        "6cff8e1073f495be0a0843e4f3c68b340895090d97042f58e160a730f9de582d",
    "base/cart-and-shipping/shippingInfo.dot":
        "d13f859596ef3ffc6a75ca36a8ccef6734ad768f375c66606a45149f8a14285b",
    "base/cart-and-shipping/shippingInfo.mermaid":
        "47be1d3b9aa2c875c193a39f41468b8a99a1781ec200fafc9505edf982271fd7",
    "base/cart/cart.dot":
        "b41dd500907140b27a4acd6e9c2d6aa5e9456dcd96ccbc947cdecc46b440d408",
    "base/cart/cart.mermaid":
        "55d594146eac810da4181d6eb57970a4360937fa03cc0962bad968a6e2103e41",
    "base/escapes/0.dot":
        "68cc1621ac23e8037e6c9176c9dd4c06428426f8b0b26ca3828b0e1fc7684388",
    "base/escapes/0.mermaid":
        "e092dd5dad1a793204e351f15552fe7a3bc8554dbfb51250ed67531fad380474",
    "base/escapes/1.dot":
        "6338afefc0c2ebec9766aa10a34cf37f050b966bb3cc2f6f315105b12bcd7b35",
    "base/escapes/1.mermaid":
        "95aaaddf6d3a22a6c95658dd5cc5fdde49710153888b9c902e6f0786162f2c2d",
    "base/escapes/2.dot":
        "b661def3467c8eb32a6269a858f6f7848f00989649eca0b8147aa5be07a81f7b",
    "base/escapes/2.mermaid":
        "f20ff76495ae615973c1ce527f8d045f40000aaa617bbbc3c48082fd9fd44188",
    "base/escapes/3.dot":
        "6e9fcfbc814a8d7130b7d312282c0075e1161312cddd21128b7eb4b8b2aee6b0",
    "base/escapes/3.mermaid":
        "cd18912e44facfafbd63a71308adb87a28eeac0436d561da2b46d876fdf82e09",
    "base/merged/0.dot":
        "c8547f09d1aa82c399a149f185ec414eb9d34523d92129c01dc011a5f69f0e39",
    "base/merged/0.mermaid":
        "066061831ca6799baa6aecccb6a02ad5ac7d506d29b4f9d4ee5d6954e146a9e5",
    "base/merged/1.dot":
        "1fa2a5dff275a7e416e5d748bbdbbd4a5ce30c7959dd8fb100a13cf17def3398",
    "base/merged/1.mermaid":
        "db00c8e9c004ff9a6395377028ac3a6bf7714147b1660d4f1fe2175ba31a07e9",
    "base/merged/2.dot":
        "3b2e35cd729e3ca10219fa8b48a1440f271db62a0e3cdb1be884188b64297874",
    "base/merged/2.mermaid":
        "599699f00cc7d58b60ac338917fe1037067b3547b037a15ab8da74567ee7aa1b",
    "base/merged/3.dot":
        "6b8375c54fd4f644dfb5eeb56673d0de0ff67b83380e5763fae21d63edc946eb",
    "base/merged/3.mermaid":
        "05860338c22f1f4adb6661f077781f243ec4d8a11e16a832e3bdeb637520f1d3",
    "base/newlines/0.dot":
        "5d327f5831e610d0df2e0ce26166b019f2900190088019c2f32518b47d3f99f2",
    "base/newlines/0.mermaid":
        "eedaf6d643a0c29dbaadcca870e52023c6827da2999b0fe10cc2b1bc1dacf77e",
    "base/newlines/1.dot":
        "512154c9b67561be86ede2a31a578695dfb79229ce74e1e6d53a97a00e91b300",
    "base/newlines/1.mermaid":
        "a8dddec5ce6dd906494e1f663fd8444ca9cb5a3d397f275f1498366ef4a084e0",
    "base/newlines/2.dot":
        "a4fc9492990ca02c857f0dae316d7ca37541b327e07aabf34c7ffd9ed9c5dcca",
    "base/newlines/2.mermaid":
        "1d819ee225f0a8f6031c70386a50925697cfd77d6450389f8974777132296124",
    "base/newlines/3.dot":
        "ffb91fe371e1bbec6e0b3c4b840a60ac987548bff6bc3f82b6c0e0ec545861ba",
    "base/newlines/3.mermaid":
        "520c661059d6349c70ed90e7952cccbf87a8add09f75a98ded8be47b26885b29",
    "base/shipping/shipping.dot":
        "60ee42c27f92d1c1005d19cef2f9d75ca856d065f3ca1a5bac4d6deb60df0dfb",
    "base/shipping/shipping.mermaid":
        "6cff8e1073f495be0a0843e4f3c68b340895090d97042f58e160a730f9de582d",
    "base/whole-cart-domain/cart.dot":
        "b41dd500907140b27a4acd6e9c2d6aa5e9456dcd96ccbc947cdecc46b440d408",
    "base/whole-cart-domain/cart.mermaid":
        "55d594146eac810da4181d6eb57970a4360937fa03cc0962bad968a6e2103e41",
    "base/whole-cart-domain/paymentGateway.dot":
        "8b5305f5f252f30dacd8b13e1d7d38a746009fd0e31e1eb555423648360a3584",
    "base/whole-cart-domain/paymentGateway.mermaid":
        "709829d8f28d8a3e4d27178571ff9d4479853b5704a921a16123b225c1f721a4",
    "base/whole-cart-domain/paymentStatus.dot":
        "b7c3623762d2783609878b55a338f90fb168a9f1fcff2e826f98f9a714fb01bd",
    "base/whole-cart-domain/paymentStatus.mermaid":
        "43fefb0d3316a491d4f1fb72892123616678b2da36410eff90ea4a1998abae41",
    "flow/all-kinds.dot":
        "c4f05bd5e99472193e0705d63a25d391c2ec19a3bcdf387c014a1e514bc4b2c4",
    "flow/all-kinds.mermaid":
        "206154160fa4c72846937f211494e8cf30254c5b24bc7b0118e99bb9faf5b13a",
    "flow/awkward.dot":
        "804c98f51354ce319017285539ae75dc0510f846e99e567c4773b55580d8d397",
    "flow/awkward.mermaid":
        "34fb01767f77f5317f73762071eeefa9a1f8a361d71d39614188f7f3082a7ab8",
    "flow/cart-and-shipping.dot":
        "4236f3514ac1d1f545f9209dc05f68fa3f74b1ab57f90bf2429ea061c45e5220",
    "flow/cart-and-shipping.mermaid":
        "98b5dfa793b73bc5e6cd87f8fdb7948f5313f3ee06aa3a833b1b2401b792ecd5",
    "flow/cart.dot":
        "e3833fca66debe8fd70312f5a619bbea4852c321096462b3fa97eabf884d88c4",
    "flow/cart.mermaid":
        "719b0a14d113aef4eaf092e50db4b5a0ac2d9a7b0c7ae68b61748a043cdfde2e",
    "flow/escapes.dot":
        "fd8dbc189770d53c9fbc340ca8ed0385c2b29881910fa02b40e7e44094a1266e",
    "flow/escapes.mermaid":
        "87f6da9488daac7fe8af1f80d40ebb647f5569b406865908a879290666faca7f",
    "flow/merged.dot":
        "0b6bddee68d6bab62014c77be4f7a300ba31ef20dfb27374674cd07ebd1c25c1",
    "flow/merged.mermaid":
        "e562333def31f7067603b3b83038b396ed47dc363182768b3e880bdb5b9e33d9",
    "flow/newlines.dot":
        "38fedcdf82654e7521f93bb3ddfef7dbe2204bfd68465fa4e8c2edb5fca8b372",
    "flow/newlines.mermaid":
        "6d0263181c2ab16fabd1447881117e9b58049304a30fad4b98d2a4f90a6a7111",
    "flow/shipping.dot":
        "da80af735eda0d4c1dcb5628ab9fe1be2b60c3892d795a212c9ee2ea79808475",
    "flow/shipping.mermaid":
        "a3bf01942843b143b58dc0b446474929c0a3f7854e70527bf25bf134b0bb90f0",
    "flow/whole-cart-domain.dot":
        "ea1776b26436c433fa87c3d50dc46a51bd7688fe6d83634c0e7aaafacc413041",
    "flow/whole-cart-domain.mermaid":
        "ac612ad239ffb8e38583388907e612532df01dfcf287cec8364aaf18496d9ef8",
}


def test_every_case_has_a_golden():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_diagram_matches_golden(case):
    text = CASES[case]().text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[case]


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _import_bench(*names):
    """Import benchmark modules without writing anything under ``bench/``."""
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH))


treegen, wl_diagrams = _import_bench("treegen", "wl_diagrams")
BENCH_DIGESTS = json.loads(wl_diagrams.DIGESTS.read_text(encoding="utf-8"))


def _assert_bench_digests(key, render, target):
    for fmt in wl_diagrams.FORMATS:
        text = render(target, fmt).text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == BENCH_DIGESTS[f"{key}.{fmt}"], fmt


@pytest.mark.parametrize("variant", range(wl_diagrams.VARIANTS))
@pytest.mark.parametrize("k", range(len(wl_diagrams.SPECS)))
def test_seeded_tree_matches_bench_digest(k, variant):
    tree = wl_diagrams.corpus_tree(k, variant)
    machine = treegen.build(tree, treegen.crem_parts(tree, crem), crem)
    _assert_bench_digests(f"tree{k}.v{variant}", render_flow, machine)


REGISTERED_FLOWS, REGISTERED_BASES = wl_diagrams.registered_targets(REGISTRY)


@pytest.mark.parametrize("key, machine", REGISTERED_FLOWS + REGISTERED_BASES,
                         ids=[key for key, _ in REGISTERED_FLOWS + REGISTERED_BASES])
def test_registered_machine_matches_bench_digest(key, machine):
    render = render_flow if key.startswith("registered.") else render_base
    _assert_bench_digests(key, render, machine)


def test_every_bench_digest_is_checked():
    keys = [f"tree{k}.v{variant}" for k in range(len(wl_diagrams.SPECS))
            for variant in range(wl_diagrams.VARIANTS)]
    keys += [key for key, _ in REGISTERED_FLOWS + REGISTERED_BASES]
    assert sorted(f"{key}.{fmt}" for key in keys for fmt in wl_diagrams.FORMATS) \
        == sorted(BENCH_DIGESTS)
