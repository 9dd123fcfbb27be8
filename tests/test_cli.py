import contextlib
import io
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import REPO, SPEC_FILES, load_spec
from goldens import GOLDEN, GOLDENS, expected, stdout_key
from hyperterm import cli
from hyperterm._frozen import replace
from hyperterm.cli import main
from hyperterm.errors import ParseError
from hyperterm.geometry import Hyperplane, MeasureZeroSet
from hyperterm.jsonio import (
    factored_from_json,
    factored_to_json,
    fraction_from_json,
    hyperplane_to_json,
    spec_from_json,
    spec_to_json,
    unreduced_generators,
)
from hyperterm.oresato import Chain, OreSatoForm, ratio_from_form
from hyperterm.parsing import parse_multipoly, parse_unipoly
from hyperterm.structure import build_structure
from hyperterm.termratio import FactoredRational


# -- serialization round trips ---------------------------------------------------


def test_spec_round_trip():
    for name in SPEC_FILES:
        spec = load_spec(name)
        assert spec_from_json(spec_to_json(spec)) == spec, name


UNREDUCED_WARNING = (
    "WARNING:hyperterm.jsonio:generator {} is not reduced; its quotient is reduced on use\n"
)


def test_spec_loader_flags_unreduced_generators(tmp_path, capsys):
    # a linear common factor, and a nonlinear one hidden in an expanded side:
    # z1^3 + z1 = z1 * (z1^2 + 1)
    path = tmp_path / "spec.json"
    for num, den in [("z1^2 + z1", "z1 * (z1 + 2)"), ("z1^3 + z1", "z1^2 + 1")]:
        obj = {"k": 1, "generators": [{"num": num, "den": den}]}
        assert unreduced_generators(spec_from_json(obj)) == [1], (num, den)
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr() == ("compatible\n", UNREDUCED_WARNING.format(1)), (num, den)
    # generators are numbered from 1
    second = {
        "k": 2,
        "generators": [{"num": "z1 + 1", "den": "1"}, {"num": "z2 * (z2 + 1)", "den": "z2"}],
    }
    assert unreduced_generators(spec_from_json(second)) == [2]
    # a reduced spec whose sides repeat a base: nothing cancels
    reduced = {"k": 1, "generators": [{"num": "(z1 + 1)^2 * (z1 + 1)", "den": "(z1 + 2) * (z1 + 2)"}]}
    assert unreduced_generators(spec_from_json(reduced)) == []
    path.write_text(json.dumps(reduced), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr() == ("compatible\n", "")
    paths = sorted(REPO.glob("specs/*.json")) + sorted(REPO.glob("perfbench/specs/*.json"))
    assert paths
    paths += [SPEC_FILES["constant"], SPEC_FILES["annihilated"]]
    for path in paths:
        spec = spec_from_json(json.loads(path.read_text(encoding="utf-8")))
        assert unreduced_generators(spec) == [], path
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().err == "", path


def test_factored_round_trip():
    from hyperterm.parsing import parse_multipoly

    fr = FactoredRational.make(
        2,
        Fraction(-3, 2),
        [(parse_multipoly("z1 + 1", 2), 2), (parse_multipoly("z1*z2 + 1", 2), 1)],
    )
    assert factored_from_json(factored_to_json(fr), 2) == fr


def test_geometry_round_trips():
    h = Hyperplane.make((2, -4), 6)
    assert hyperplane_to_json(h) == {"v": [1, -2], "n": 3}
    spec = replace(load_spec("binomial"), exceptions=MeasureZeroSet.make([h]))
    assert spec_from_json(spec_to_json(spec)).exceptions.hyperplanes == (h,)


def test_exception_without_lattice_points_round_trips():
    # 2 z1 = 1 holds no integer point; written out, it must not read back
    # as the plane z1 = 1
    declared = MeasureZeroSet.make([Hyperplane.make((2,), 1), Hyperplane.make((1,), -3)])
    spec = replace(load_spec("odd"), exceptions=declared)
    back = spec_from_json(spec_to_json(spec))
    assert back == spec
    assert back.exceptions.hyperplanes == (Hyperplane.make((1,), -3),)
    assert not back.exceptions.covers((1,))


# -- commands ----------------------------------------------------------------------


def test_check_compatible(capsys):
    path = str(SPEC_FILES["binomial"])
    assert main(["check", path]) == 0
    assert capsys.readouterr().out.strip() == "compatible"


def test_check_incompatible(tmp_path, capsys):
    obj = {
        "k": 2,
        "generators": [
            {"num": "z2", "den": "1"},
            {"num": "1", "den": "1"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.strip() == "incompatible"


def test_check_incompatible_third_axis(tmp_path, capsys):
    # R_1 and R_2 agree with each other, but R_3 = (z1 + z2)/(z3 + 1)
    # agrees with neither: shifting it by e_1 or e_2 moves z1 + z2
    obj = {
        "k": 3,
        "generators": [
            {"num": "1", "den": "1"},
            {"num": "1", "den": "1"},
            {"num": "z1 + z2", "den": "z3 + 1"},
        ],
    }
    path = tmp_path / "bad3.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.strip() == "incompatible"


def test_incompatible_spec_is_an_error_for_decompose_and_structure(tmp_path, capsys):
    # the spec of test_check_incompatible with a seed, which structure needs
    # before it decomposes; decompose names incompatibility only after its
    # residue pass fails
    obj = {
        "k": 2,
        "generators": [
            {"num": "z2", "den": "1"},
            {"num": "1", "den": "1"},
        ],
        "seed": {"point": [0, 0], "value": "1"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    for command in ["decompose", "structure"]:
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: generators are not compatible\n"


def test_eval_paper_value(capsys):
    path = str(SPEC_FILES["odd"])
    assert main(["eval", path, "--at", "-2"]) == 0
    assert capsys.readouterr().out.strip() == "1/3"


def test_eval_at_positive(capsys):
    path = str(SPEC_FILES["odd"])
    assert main(["eval", path, "--at", "3"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_eval_on_the_shipped_specs(capsys):
    # choose(5, 2); the binomial piece of (-3, 2) lies behind the wall
    # z1 >= 0 that no flood from the seed crosses; wedge3d at (3, 1, 9)
    cases = [
        ("specs/binomial.json", "5,2", "10"),
        ("specs/binomial.json", "-3,2", "undefined: value-unknown"),
        ("perfbench/specs/wedge3d.json", "3,1,9", "1437004800"),
    ]
    for spec, at, value in cases:
        assert main(["eval", str(REPO / spec), "--at", at]) == 0
        assert capsys.readouterr().out == f"{value}\n"


def test_spec_without_a_seed_is_a_usage_error_for_the_structure(tmp_path, capsys):
    # check and decompose take a spec without a seed; every command that
    # builds the structure needs one, so its absence is a usage error
    obj = {"k": 1, "generators": [{"num": "2*z1 + 1", "den": "1"}]}
    path = tmp_path / "seedless.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert main(["decompose", str(path)]) == 0
    capsys.readouterr()
    for argv in [["structure"], ["factorial"], ["pochhammer"], ["eval", "--at", "2"], ["compare"]]:
        assert main([argv[0], str(path), *argv[1:]]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: building a structure requires a seed value\n"
    # a zero-divisor structure needs no seed; only the oracle of compare does
    obj = {"k": 1, "generators": [{"num": "z1", "den": "z1 + 1"}], "zero_divisor_witness": "z1"}
    path.write_text(json.dumps(obj), encoding="utf-8")
    for argv in [["structure"], ["factorial"], ["pochhammer"], ["eval", "--at", "2"]]:
        assert main([argv[0], str(path), *argv[1:]]) == 0, argv
    capsys.readouterr()
    assert main(["compare", str(path)]) == 2
    assert capsys.readouterr().err == "error: grid comparison requires a seed value\n"


def test_compare_command(capsys):
    path = str(SPEC_FILES["binomial"])
    assert main(["compare", path, "--window", "-6:6,-6:6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mismatches"] == []
    assert report["checked"] > 0


def test_decompose_command_output_file(tmp_path):
    path = str(SPEC_FILES["binomial"])
    out = tmp_path / "form.json"
    assert main(["decompose", path, "-o", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["C"] == "1" and obj["D"] == "1"
    assert len(obj["chains"]) == 3


def test_structure_command(capsys):
    path = str(SPEC_FILES["odd"])
    assert main(["structure", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["H"] == []
    assert len(obj["pieces"]) == 1
    assert obj["pieces"][0]["f0"] == "1"


def test_factorial_command(capsys):
    path = str(SPEC_FILES["odd"])
    assert main(["factorial", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["forms"]) == 2


def test_pochhammer_command(capsys):
    path = str(SPEC_FILES["odd"])
    assert main(["pochhammer", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["forms"]) == 2


def test_seed_override(capsys):
    path = str(SPEC_FILES["odd"])
    assert main(["eval", path, "--at", "1", "--seed", "0=2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_deterministic_output(tmp_path):
    path = str(SPEC_FILES["binomial"])
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["structure", path, "-o", str(out1)]) == 0
    assert main(["structure", path, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_usage_errors(tmp_path, capsys):
    path = str(SPEC_FILES["odd"])
    assert main(["eval", path]) == 2  # missing --at
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    assert main(["compare", path, "--window", "0:4:9"]) == 2
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps({"k": 1, "generators": [{"num": "0", "den": "1"}]}))
    assert main(["check", str(bad)]) == 2
    assert main(["check", path, "--seed", "0=1/0"]) == 2
    assert "bad rational literal '1/0'" in capsys.readouterr().err
    # an exception plane of arity 1 in a k = 2 spec is rejected on loading
    flat = spec_to_json(load_spec("binomial"))
    flat["exceptions"] = [{"v": [1], "n": 0}]
    flat_path = tmp_path / "flat.json"
    flat_path.write_text(json.dumps(flat), encoding="utf-8")
    for command in ["check", "decompose", "structure", "compare"]:
        assert main([command, str(flat_path)]) == 2
        assert "exception hyperplane arity mismatch" in capsys.readouterr().err
    # integer fields of a spec take no bools and no floats that are not
    # integral; an integral float reads as its integer
    integer_spec = {
        "k": 1,
        "generators": [{"num": "z1 + 1", "den": "1"}],
        "seed": {"point": [0], "value": "1"},
    }
    bad_path = tmp_path / "bad_integer.json"
    for key, value in [
        ("k", 1.9),
        ("k", True),
        ("seed", {"point": [0.9], "value": "1"}),
        ("seed", {"point": [False], "value": "1"}),
        ("exceptions", [{"v": [1.5], "n": 0}]),
        ("exceptions", [{"v": [1], "n": 0.5}]),
    ]:
        bad_path.write_text(json.dumps({**integer_spec, key: value}), encoding="utf-8")
        assert main(["eval", str(bad_path), "--at", "3"]) == 2, (key, value)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer" in captured.err
    integral = {**integer_spec, "k": 1.0, "seed": {"point": [0.0], "value": "1"}}
    assert spec_from_json(integral) == spec_from_json(integer_spec)


def test_generator_count_is_checked_before_any_generator_is_parsed(tmp_path, capsys):
    # each of these named a generator before; parsing the first generator
    # of "k": 2^70 would build 2^70 variables
    cases = [
        ({"k": 0, "generators": [{"num": "z1", "den": "1"}]}, "arity must be at least 1"),
        ({"k": 2, "generators": [{"num": "z3", "den": "1"}]}, "expected 2 generators, got 1"),
        ({"k": 1, "generators": [1, 2]}, "expected 1 generators, got 2"),
        (
            {"k": 2**70, "generators": [{"num": "z1 + 1", "den": "1"}]},
            f"expected {2**70} generators, got 1",
        ),
    ]
    path = tmp_path / "spec.json"
    for obj, message in cases:
        path.write_text(json.dumps(obj), encoding="utf-8")
        start = time.perf_counter()
        assert main(["check", str(path)]) == 2, obj
        assert time.perf_counter() - start < 1, obj
        assert capsys.readouterr() == ("", f"error: {message}\n"), obj


@pytest.mark.parametrize(
    "argv",
    [["structure"], ["eval", "--at", "5,2"], ["compare"]],
    ids=["structure", "eval", "compare"],
)
def test_a_flood_past_its_limit_is_a_usage_error(argv, capsys):
    # a seed at (2^70, 0): the box from the base points near the origin to
    # the seed holds 26 (2^70 + 20) points
    start = time.perf_counter()
    seed = f"{2**70},0=1"
    assert main([argv[0], str(SPEC_FILES["binomial"]), *argv[1:], "--seed", seed]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "",
        f"error: the flood's box from (-13, -13) to ({2**70 + 6}, 12) holds "
        f"{26 * (2**70 + 20)} points, more than FLOOD_POINT_LIMIT = 1000000\n",
    )


def test_a_spec_past_the_degree_or_arity_limit_is_a_usage_error(tmp_path, capsys):
    # "num": "z1^100000" passed check, and structure ran past 10 s; each text
    # is refused before it is multiplied out
    binomial = json.loads(SPEC_FILES["binomial"].read_text(encoding="utf-8"))

    def with_num(num):
        return {**binomial, "generators": [{**binomial["generators"][0], "num": num}, binomial["generators"][1]]}

    def factorials(k):
        return {"k": k, "generators": [{"num": f"z{i + 1} + 1", "den": "1"} for i in range(k)]}

    cases = [
        (with_num("z1^100000"), "total degree 100000 is more than DEGREE_LIMIT = 100"),
        (with_num("(z1 + 1)^50 * (z1 - z2)^51"), "total degree 101 is more than DEGREE_LIMIT = 100"),
        # a power is refused before it is multiplied out, also in a sum
        (with_num("(z1 + z2 + 1)^101 + z1^200"), "total degree 101 is more than DEGREE_LIMIT = 100"),
        (
            {**binomial, "zero_divisor_witness": "(z1 + z2)^51 * z1^51"},
            "total degree 102 is more than DEGREE_LIMIT = 100",
        ),
        # the term count of a power or product is bounded before it is
        # multiplied out, and the bits of a power of a constant too
        (
            {"k": 3, "generators": [{"num": "(z1 + z2 + z3 + 1)^60 + 1", "den": "1"}] + factorials(3)["generators"][1:]},
            "an expansion of up to 39711 terms is more than TERM_LIMIT = 5000",
        ),
        (with_num("3^200000 * (z1 + 1)"), "a constant power of 316993 bits is more than CONSTANT_BITS_LIMIT = 1000"),
        (factorials(9), "arity 9 is more than ARITY_LIMIT = 8"),
        ({**factorials(9), "generators": []}, "expected 9 generators, got 0"),
    ]
    path = tmp_path / "spec.json"
    for obj, message in cases:
        path.write_text(json.dumps(obj), encoding="utf-8")
        for command in ["check", "structure"]:
            start = time.perf_counter()
            assert main([command, str(path)]) == 2, (command, obj)
            assert time.perf_counter() - start < 1, (command, obj)
            assert capsys.readouterr() == ("", f"error: {message}\n"), (command, obj)
    # at the limits the specs load
    at_limit = {"k": 1, "generators": [{"num": "(z1 + 1)^50 * z1^50", "den": "1"}]}
    sparse = {
        "k": 3,
        "generators": [{"num": "(z1*z2*z3)^30 * 2^999", "den": "(z1*z2*z3)^30"}] + [{"num": "1", "den": "1"}] * 2,
    }
    for obj in [at_limit, sparse, factorials(8)]:
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["check", str(path)]) == 0, obj
        capsys.readouterr()


def test_zero_witness_is_a_usage_error(tmp_path, capsys):
    # 0 * f = 0 holds for every term, so a zero witness says nothing
    obj = json.loads((REPO / "specs" / "binomial.json").read_text(encoding="utf-8"))
    obj["zero_divisor_witness"] = "0"
    with pytest.raises(ParseError, match="zero_divisor_witness"):
        spec_from_json(obj)
    path = tmp_path / "zero_witness.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    for command in ["check", "structure"]:
        assert main([command, str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: zero_divisor_witness: "), captured.err


def test_polynomial_field_of_the_wrong_json_type_is_named(tmp_path, capsys):
    binomial = json.loads((REPO / "specs" / "binomial.json").read_text(encoding="utf-8"))
    path = tmp_path / "wrong_type.json"
    cases = [
        ({"k": 1, "generators": [{"num": [1], "den": "1"}]}, "generators[0].num"),
        ({"k": 1, "generators": [{"num": "1", "den": [1]}]}, "generators[0].den"),
        ({"k": 1, "generators": [{"num": 3, "den": "1"}]}, "generators[0].num"),
        (
            {**binomial, "generators": [binomial["generators"][0], {"num": "z2", "den": ["z1"]}]},
            "generators[1].den",
        ),
        ({**binomial, "zero_divisor_witness": [1]}, "zero_divisor_witness"),
    ]
    for obj, field in cases:
        with pytest.raises(ParseError, match=re.escape(f"{field}: expected a string")):
            spec_from_json(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["check", str(path)]) == 2, field
        assert capsys.readouterr() == ("", f"error: {field}: expected a string\n"), field


ODD_JSON = json.loads(SPEC_FILES["odd"].read_text(encoding="utf-8"))
ODD_GENERATORS = ODD_JSON["generators"]


@pytest.mark.parametrize(
    "obj, message",
    [
        ([ODD_JSON], "spec JSON needs 'k' and 'generators'"),
        ({**ODD_JSON, "k": "1"}, "k must be an integer, got '1'"),
        ({**ODD_JSON, "generators": ODD_GENERATORS[0]}, "generators: expected a list"),
        ({**ODD_JSON, "generators": [1]}, "generators[0]: expected an object"),
        ({**ODD_JSON, "generators": [{"den": "1"}]}, "generators[0].num: missing"),
        ({**ODD_JSON, "generators": [{"num": "1"}]}, "generators[0].den: missing"),
        ({**ODD_JSON, "exceptions": {"v": [1], "n": 0}}, "exceptions: expected a list"),
        ({**ODD_JSON, "exceptions": [[1, 0]]}, "exceptions[0]: expected an object"),
        ({**ODD_JSON, "exceptions": [{"n": 0}]}, "exceptions[0].v: missing"),
        (
            {**ODD_JSON, "exceptions": [{"v": 1, "n": 0}]},
            "exceptions[0].v: expected a list of integers",
        ),
        (
            {**ODD_JSON, "exceptions": [{"v": ["1"], "n": 0}]},
            "exceptions[0].v[0] must be an integer, got '1'",
        ),
        ({**ODD_JSON, "exceptions": [{"v": [1]}]}, "exceptions[0].n: missing"),
        (
            {**ODD_JSON, "exceptions": [{"v": [1], "n": None}]},
            "exceptions[0].n must be an integer, got None",
        ),
        ({**ODD_JSON, "seed": [[0], "1"]}, "seed: expected an object"),
        ({**ODD_JSON, "seed": {"value": "1"}}, "seed.point: missing"),
        ({**ODD_JSON, "seed": {"point": 0, "value": "1"}}, "seed.point: expected a list of integers"),
        (
            {**ODD_JSON, "seed": {"point": ["0"], "value": "1"}},
            "seed.point[0] must be an integer, got '0'",
        ),
        ({**ODD_JSON, "seed": {"point": [0]}}, "seed.value: missing"),
    ],
    ids=[
        "spec",
        "k",
        "generators",
        "generators_0",
        "generators_0_num",
        "generators_0_den",
        "exceptions",
        "exceptions_0",
        "exceptions_0_v",
        "exceptions_0_v_list",
        "exceptions_0_v_0",
        "exceptions_0_n",
        "exceptions_0_n_integer",
        "seed",
        "seed_point",
        "seed_point_list",
        "seed_point_0",
        "seed_value",
    ],
)
def test_spec_field_of_the_wrong_shape_is_named(obj, message, tmp_path, capsys):
    # the loader names the field by its path, where a KeyError or a
    # TypeError once printed only a key or a Python type
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        spec_from_json(obj)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_malformed_window_range_is_named(capsys):
    path = str(SPEC_FILES["binomial"])
    expects = "--window expects 'lo:hi' per axis"
    cases = [
        ("1:2:3,0:1", f"bad window range '1:2:3': {expects}"),
        ("0:2,1", f"bad window range '1': {expects}"),
        ("0:x,0:2", f"bad window range '0:x': {expects}"),
        ("0:2,", f"bad window range '': {expects}"),
        ("3:1,0:2", "empty window range '3:1'"),
        ("0:2", "expected 2 window ranges, got 1"),
        ("0:2,0:3", "window ranges must all have the same length"),
    ]
    for window, message in cases:
        assert main(["compare", path, "--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_leading_minus_binds_to_the_first_term(tmp_path, capsys):
    # -z1 + 5 is 5 - z1, not -(z1 + 5): the same chain, and f(2) = 5 * 4
    outputs = []
    for num in ["-z1 + 5", "5 - z1"]:
        obj = {
            "k": 1,
            "generators": [{"num": num, "den": "1"}],
            "seed": {"point": [0], "value": "1"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["decompose", str(path)]) == 0
        assert main(["eval", str(path), "--at", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("\n20\n")


def test_eval_point_arity_is_a_usage_error(capsys):
    path = str(SPEC_FILES["binomial"])
    for at in ["1", "1,2,3"]:
        assert main(["eval", path, "--at", at]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected 2 coordinates in --at, got {len(at.split(','))}" in captured.err


def test_malformed_eval_point_is_named(capsys):
    path = str(SPEC_FILES["binomial"])
    for at in ["1,x", "1.5,2", "1,,2"]:
        assert main(["eval", path, "--at", at]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad point {at!r}: --at expects integers 'z1,...,zk'\n"


def test_malformed_seed_point_is_named(capsys):
    path = str(SPEC_FILES["binomial"])
    expects = "--seed expects 'z1,...,zk=p/q'"
    cases = [
        ("0,y=1", f"bad seed point '0,y': {expects}"),
        ("=1", f"bad seed point '': {expects}"),
        ("0;0=1", f"bad seed point '0;0': {expects}"),
        ("0,0", expects),
    ]
    for seed, message in cases:
        assert main(["eval", path, "--at", "1,1", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# numbers on the command line and in a spec are ASCII: int() and Fraction()
# also read '٣' as 3 and '1_0' as 10, and Fraction() '0.5' as 1/2
ODD = str(SPEC_FILES["odd"])
BAD_POINT = "error: bad point {!r}: --at expects integers 'z1,...,zk'\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["eval", ODD, "--at", "٣"], BAD_POINT.format("٣")),
        (["eval", ODD, "--at", "1_0"], BAD_POINT.format("1_0")),
        (["eval", ODD, "--at", "+3"], BAD_POINT.format("+3")),
        (["eval", str(SPEC_FILES["binomial"]), "--at", "٣,1"], BAD_POINT.format("٣,1")),
        (
            ["eval", ODD, "--at", "1", "--seed", "٠=2"],
            "error: bad seed point '٠': --seed expects 'z1,...,zk=p/q'\n",
        ),
        (["eval", ODD, "--at", "1", "--seed", "0=٢"], "error: bad rational literal '٢'\n"),
        (["eval", ODD, "--at", "1", "--seed", "0=0.5"], "error: bad rational literal '0.5'\n"),
        (
            ["compare", ODD, "--window", "٠:٢"],
            "error: bad window range '٠:٢': --window expects 'lo:hi' per axis\n",
        ),
        (
            ["compare", ODD, "--window", "0:1_0"],
            "error: bad window range '0:1_0': --window expects 'lo:hi' per axis\n",
        ),
    ],
    ids=[
        "at_arabic_indic_digit",
        "at_underscore",
        "at_plus_sign",
        "at_arabic_indic_digit_k2",
        "seed_point_arabic_indic_digit",
        "seed_value_arabic_indic_digit",
        "seed_value_decimal",
        "window_arabic_indic_digits",
        "window_underscore",
    ],
)
def test_non_ascii_numbers_in_arguments_are_usage_errors(argv, err, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "value",
    ["٣", "1_0", "0.5", "+3", "1 / 2", 0.5],
    ids=["arabic_indic", "underscore", "decimal", "plus_sign", "inner_space", "json_number"],
)
def test_non_ascii_seed_value_in_a_spec_is_a_usage_error(value, tmp_path, capsys):
    obj = {**ODD_JSON, "seed": {"point": [0], "value": value}}
    with pytest.raises(ParseError, match=re.escape(f"bad rational literal {value!r}")):
        spec_from_json(obj)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["eval", str(path), "--at", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: bad rational literal {value!r}\n")


def test_ascii_numbers_keep_their_sign_and_surrounding_space(capsys):
    assert fraction_from_json(" -3/4 ") == Fraction(-3, 4)
    assert fraction_from_json(3) == 3
    assert main(["eval", ODD, "--at", " -2 "]) == 0
    assert main(["eval", ODD, "--at", "1", "--seed", " 0 = -1/2 "]) == 0
    assert main(["compare", ODD, "--window", " -2 : 2 "]) == 0
    out = capsys.readouterr().out.splitlines()
    # f(1) = f(0) * (2 * 0 + 1)
    assert out[:2] == ["1/3", "-1/2"]


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "hyperterm" in capsys.readouterr().out


def test_eval_undefined_point(capsys):
    # the binomial piece behind the zero wall has no derivable value
    path = str(SPEC_FILES["binomial"])
    assert main(["eval", path, "--at", "-4,-4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("undefined:")


def test_structure_zero_divisor_spec(capsys):
    path = str(SPEC_FILES["annihilated"])
    assert main(["structure", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["form"]["D"] == "z1"
    assert obj["pieces"][0]["f0"] == "0"


def test_structure_error_exit_code(tmp_path, capsys):
    # an expanded two-factor product cannot be classified once the factor
    # structure is gone from both generators
    c = parse_multipoly("(z1 + z2 + 1)*(z1*z2 + 1)", 2)
    obj = {
        "k": 2,
        "generators": [
            {"num": str(c.shift((1, 0))), "den": str(c)},
            {"num": str(c.shift((0, 1))), "den": str(c)},
        ],
    }
    path = tmp_path / "opaque.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["decompose", str(path)]) == 1
    assert "error" in capsys.readouterr().err


# -- golden outputs ----------------------------------------------------------------
#
# tests/goldens.py holds the table of golden commands and describes them.


def run_cli_streams(argv: list[str]) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of the command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def test_cli_output_matches_goldens():
    statuses = json.loads((GOLDEN / "exit_status.json").read_text(encoding="utf-8"))
    keys = sorted(key for key in GOLDENS if stdout_key(key) == key)
    # every golden file belongs to a command of the table
    assert keys == sorted(statuses) == sorted(p.stem for p in GOLDEN.glob("*.out"))
    assert {p.stem for p in GOLDEN.glob("*.err")} <= GOLDENS.keys()
    for key, argv in GOLDENS.items():
        status, out, _ = run_cli_streams(argv)
        assert (status, out.encode("utf-8")) == expected(key)[:2], key


def test_cli_stderr_matches_goldens():
    for key, argv in GOLDENS.items():
        err = expected(key)[2]
        if err is not None:
            assert run_cli_streams(argv)[2].encode("utf-8") == err, key


def test_verbose_names_a_piece_the_flood_did_not_reach(monkeypatch):
    # no spec of the repository has a piece without a base value and
    # without a wall, so this takes binomial's three and drops their walls
    ps = build_structure(load_spec("binomial"))
    unwalled = replace(ps, pieces=tuple(replace(piece, wall=None) for piece in ps.pieces))
    monkeypatch.setattr(cli, "build_structure", lambda spec: unwalled)
    status, _, err = run_cli_streams(GOLDENS["specs_binomial.factorial_verbose"])
    assert status == 0
    walled = (GOLDEN / "specs_binomial.factorial_verbose.err").read_text(encoding="utf-8")
    unreached = walled.replace(
        "is unreachable from the seed: behind the wall z1 >= 0",
        "is not reached within the flood's box",
    )
    assert err == unreached != walled


def _golden_form_round_trips(key: str) -> None:
    # the golden form, parsed from its printed fields, reproduces every
    # generator of the spec it came from
    spec = spec_from_json(json.loads(Path(GOLDENS[key][1]).read_text(encoding="utf-8")))
    obj = json.loads((GOLDEN / f"{key}.out").read_text(encoding="utf-8"))
    k = spec.arity
    form = OreSatoForm(
        k,
        parse_multipoly(obj["C"], k),
        parse_multipoly(obj["D"], k),
        tuple(fraction_from_json(g) for g in obj["gamma"]),
        tuple(
            Chain(tuple(c["v"]), parse_unipoly(c["a"]), parse_unipoly(c["b"]))
            for c in obj["chains"]
        ),
    )
    for i, r in enumerate(spec.ratios()):
        e = tuple(int(j == i) for j in range(k))
        assert ratio_from_form(form, e).eq_rational(r)


def test_shift16_golden_form_round_trips():
    # C = p, D = p(z + (16, -16)) with p = (z1 + z2)^2 + z1: the two factors
    # lie 16 steps apart on the orbit of a degenerate top form (z1 + z2)^2
    _golden_form_round_trips("shift16.decompose")


def test_telescope_golden_form_round_trips():
    # the spec of C = z1 + z2, D = z1^2 + z2^2 + 1, gamma = (3, -2) and the
    # chains (1, -1): t/(t + 3) and (2, 1): 1/(t + 3); the first telescopes,
    # so decompose folds (z1 - z2)(z1 - z2 + 1)(z1 - z2 + 2) into D.  The
    # parsed form keeps no pieces, so its ratios come from the
    # multiplied-out D of degree 5
    _golden_form_round_trips("telescope.decompose")


if __name__ == "__main__":
    statuses = {}
    for key, argv in GOLDENS.items():
        status, out, err = run_cli_streams(argv)
        if stdout_key(key) == key:
            statuses[key] = status
            (GOLDEN / f"{key}.out").write_bytes(out.encode("utf-8"))
        if (GOLDEN / f"{key}.err").exists():
            (GOLDEN / f"{key}.err").write_bytes(err.encode("utf-8"))
    (GOLDEN / "exit_status.json").write_text(
        json.dumps(statuses, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
