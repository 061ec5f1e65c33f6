"""Command-line entry point.

Commands: ``normalize``, ``group mul|inv``, ``check``, ``extend``,
``dilate --pipeline {A,B,C,A-cptp}``, ``demo``, ``verify``.  All reports are
JSON with a stable schema; the seed fully determines all sampling, so equal
configs give byte-identical report bodies.

Exit codes: 0 pass, 2 input error, 3 precondition failure, 4 verification
failure.
"""

import argparse
import functools
import json
import math
import sys

# numpy and the numeric layers are imported inside the commands that use
# them, so that the word commands (normalize, group) start without them
from . import rewrite
from .errors import InputError, PreconditionError, reading
from .reports import CheckReport, dumps

SCHEMA = "graphdyn-report/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up by name at call time: the parser is built once, and a
        # command rebound after that (by a tracing wrapper, say) is the one
        # that must run
        return globals()[args.func](args)
    except PreconditionError as exc:
        print(f"precondition failure [{exc.axiom}]: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="graphdyn",
        description="dynamical systems on graphs: rewriting, checking, dilating",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("normalize", help="normal form of a word")
    _common(p)
    p.add_argument("--word", help="word literal [[tail,head],...] (overrides input)")
    p.add_argument("--trace", action="store_true",
                   help="print one witnessing reduction sequence")
    p.set_defaults(func="cmd_normalize")

    p = sub.add_parser("group", help="edge-group arithmetic")
    gsub = p.add_subparsers(required=True)
    pm = gsub.add_parser("mul", help="product of words")
    _common(pm)
    pm.add_argument("--words", help="JSON array of word literals")
    pm.set_defaults(func="cmd_group_mul")
    pi = gsub.add_parser("inv", help="inverse of a word")
    _common(pi)
    pi.add_argument("--word", help="word literal")
    pi.set_defaults(func="cmd_group_inv")

    p = sub.add_parser("check", help="axiom report for a system spec")
    _common(p)
    # dynamics.TRIPLE_TOL_FLOOR and GROWTH_TOL, written out: numpy is not loaded
    p.add_argument("--tol", type=_tolerance, default=1e-10,
                   help="bound of the checks; divisibility and additivity use "
                        "at least 1e-09, and geometric growth always 1e-12")
    p.add_argument("--samples", type=_count, default=25)
    p.add_argument("--seed", type=_count, default=0)
    p.set_defaults(func="cmd_check")

    p = sub.add_parser("extend", help="evaluate a group extension of a family")
    _common(p)
    p.add_argument("--word", help="word literal")
    p.add_argument("--which", choices=["normal", "cover1", "cover2"],
                   default="normal")
    p.set_defaults(func="cmd_extend")

    p = sub.add_parser("dilate", help="run a dilation pipeline and verify it")
    _common(p)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--pipeline", choices=["A", "B", "C", "A-cptp"], required=True)
    p.set_defaults(func="cmd_dilate")

    p = sub.add_parser("demo", help="write a built-in example system + sweep CSV")
    p.add_argument("name", choices=["indivisible-2.4", "network-2.5", "lindblad"])
    p.add_argument("--output", default=".", help="output directory")
    p.add_argument("--seed", type=_count, help="lindblad only (default 0)")
    p.set_defaults(func="cmd_demo")

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--output")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--samples", type=_count, default=25)
    p.add_argument("--seed", type=_count, default=0)
    p.set_defaults(func="cmd_verify")
    return parser


def _common(p):
    p.add_argument("--input", help="path to a JSON spec")
    p.add_argument("--output", help="path for the JSON report")


def _count(text):
    """A non-negative integer: ``--seed`` and ``--samples``."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _tolerance(text):
    """A finite number >= 0: ``--tol``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _decode(text, what):
    """``json.loads``, with an input nested past the interpreter's recursion
    limit as an input error: the decoder recurses once per level."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError(f"{what} is nested too deeply to decode") from None


@reading("spec")
def _load(args):
    if not args.input:
        raise InputError("--input is required for this command")
    with open(args.input) as fh:
        spec = _decode(fh.read(), "--input")
    # demo files wrap the system spec under a "system" key
    if isinstance(spec, dict) and "system" in spec and "family" not in spec:
        return spec["system"]
    return spec


def _emit(args, body):
    text = dumps(body)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_body(command, args, checks, extra=None):
    body = {
        "schema": SCHEMA,
        "command": command,
        "seed": args.seed,
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }
    if extra:
        body.update(extra)
    return body


@reading("spec")
def _word_from(args, spec):
    if args.word is not None:
        return rewrite.word_from_literal(_decode(args.word, "--word"))
    if "word" in spec:
        return rewrite.word_from_literal(spec["word"])
    raise InputError("no word given (flag or spec field)")


# -- commands ---------------------------------------------------------------------

def cmd_normalize(args):
    spec = _load(args)
    with reading("spec"):
        ctx = rewrite.context_from_spec(spec["graph"])
    w = _word_from(args, spec)
    if args.trace:
        nf, trace = rewrite.reduction_trace(ctx, w)
    else:
        nf, trace = rewrite.normalize(ctx, w), []
    _emit(args, {
        "schema": SCHEMA,
        "command": "normalize",
        "input_word": rewrite.word_to_literal(w),
        "normal_form": rewrite.word_to_literal(nf.letters),
        "is_identity": nf.is_identity(),
        "trace": trace,
    })
    return EXIT_OK


def cmd_group_mul(args):
    spec = _load(args)
    with reading("spec"):
        ctx = rewrite.context_from_spec(spec["graph"])
        if args.words is not None:
            words = rewrite.words_from_literal(_decode(args.words, "--words"), "--words")
        else:
            words = rewrite.words_from_literal(spec["words"], "words")
    # the system is confluent, so the product of the words' normal forms is
    # the normal form of their concatenation: one stack pass, linear in the
    # total letters
    product = rewrite.normalize(ctx, [letter for w in words for letter in w])
    _emit(args, {
        "schema": SCHEMA,
        "command": "group mul",
        "normal_form": rewrite.word_to_literal(product.letters),
        "is_identity": product.is_identity(),
    })
    return EXIT_OK


def cmd_group_inv(args):
    spec = _load(args)
    with reading("spec"):
        ctx = rewrite.context_from_spec(spec["graph"])
    g = rewrite.normalize(ctx, _word_from(args, spec))
    _emit(args, {
        "schema": SCHEMA,
        "command": "group inv",
        "normal_form": rewrite.word_to_literal(rewrite.ginv(g).letters),
    })
    return EXIT_OK


def cmd_check(args):
    from . import dynamics, sampling
    spec = _load(args)
    system = dynamics.build_system(spec)
    rng = sampling.rng_from_seed(args.seed)
    checks = list(_system_checks(system, args.tol, args.samples, rng))
    # defects are measurements here, not failures: the axiom outcomes live in
    # the report's "passed" fields
    _emit(args, _report_body("check", args, checks,
                             extra={"kind": system["kind"]}))
    return EXIT_OK


def _system_checks(system, tol, samples, rng):
    from . import dynamics
    fam = system["family"]
    if system["kind"] == "cptp":
        from . import dilate
        yield dilate.check_cptp_family(system, tol)
        return
    yield dynamics.check_identity_axiom(fam, tol)
    floor = max(tol, dynamics.TRIPLE_TOL_FLOOR)
    yield dynamics.check_divisibility(fam, floor, rng=rng, count=samples)
    gens = system.get("generators")
    if gens is not None:
        yield dynamics.check_additivity(gens, floor, rng=rng, count=samples)
        yield gens.check_dissipative(tol=tol)
    ell = system.get("ell")
    if ell is not None:
        yield dynamics.check_geometric_growth(
            gens if gens is not None else fam, ell)
    net = system.get("network")
    if net is not None:
        yield dynamics.check_network_defect(net, fam, tol)


def cmd_extend(args):
    from . import dynamics, extend, linops
    spec = _load(args)
    system = dynamics.build_system(spec)
    ctx = system["graph"].context()
    g = rewrite.normalize(ctx, _word_from(args, spec))
    fam = system["family"]
    if args.which == "normal":
        value = extend.NormalFormExtension(fam)(g)
        cover = None
    else:
        cover = extend.cover_of_word(system["graph"], g).as_segment_dicts()
        if args.which == "cover1":
            value = extend.FirstCoverExtension(fam)(g, verify=True)
        else:
            gens = system.get("generators")
            if gens is None:
                raise InputError("cover2 extension needs a generator family")
            value = extend.SecondCoverExtension(gens)(g)
    _emit(args, {
        "schema": SCHEMA,
        "command": "extend",
        "which": args.which,
        "normal_form": rewrite.word_to_literal(g.letters),
        "cover": cover,
        "value": linops.matrix_to_literal(value),
    })
    return EXIT_OK


def cmd_dilate(args):
    from . import dilate, dynamics, sampling
    spec = _load(args)
    system = dynamics.build_system(spec)
    rng = sampling.rng_from_seed(args.seed)
    if args.pipeline == "A-cptp" and system["kind"] != "cptp":
        raise InputError("pipeline A-cptp needs a cptp system spec")
    dilated = dilate.PIPELINES[args.pipeline](system)
    body = _report_body("dilate", args, dilated.verify(rng=rng, tol=args.tol),
                        extra={"pipeline": args.pipeline})
    _emit(args, body)
    return EXIT_OK if body["passed"] else EXIT_VERIFICATION


# -- demos -----------------------------------------------------------------------

def cmd_demo(args):
    import csv
    import os

    if args.seed is not None and args.name != "lindblad":
        raise InputError(f"--seed: only the lindblad demo takes a seed, not {args.name}")
    os.makedirs(args.output, exist_ok=True)
    base = os.path.join(args.output, args.name.replace(".", "_"))
    if args.name == "indivisible-2.4":
        spec, rows, header, expected = _demo_indivisible()
    elif args.name == "network-2.5":
        spec, rows, header, expected = _demo_network()
    else:
        spec, rows, header, expected = _demo_lindblad(args.seed or 0)
    with open(base + ".json", "w") as fh:
        fh.write(dumps({"schema": SCHEMA, "system": spec, "expected": expected})
                 + "\n")
    with open(base + "_sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(base + ".json")
    print(base + "_sweep.csv")
    return EXIT_OK


def _indivisible_spec():
    """The two-Hamiltonian interpolation (sigma_x, sigma_z) on a 9-point grid."""
    import numpy as np
    from . import linops
    return {
        "graph": {"order": list(np.linspace(1.0, 0.0, 9))},
        "dim": 4,
        "family": {
            "kind": "indivisible-example",
            "h1": linops.matrix_to_literal(linops.SIGMA_X),
            "h2": linops.matrix_to_literal(linops.SIGMA_Z),
            "t_max": 1.0,
            "grid_points": 9,
            "alpha": 1.0,
        },
    }


def _demo_indivisible():
    import numpy as np
    from . import dynamics, linops
    spec = _indivisible_spec()
    gens = dynamics.build_system(spec)["generators"]
    rows = []
    for alpha in np.geomspace(0.01, 10.0, 25):
        fam = gens.exponential(float(alpha))
        rows.append([float(alpha),
                     dynamics.divisibility_defect(fam, 1.0, 0.5, 0.0)])
    c1, c2 = dynamics.interpolated_commutator_coefficients(1.0, 0.5, 1.0)
    hat = linops.commutator(linops.SIGMA_X, linops.SIGMA_Z)
    comm_defect = linops.spectral_norm(
        linops.commutator(gens((1.0, 0.5)), gens((0.5, 0.0)))
        + 0.125 * linops.commutator_superop(hat))
    expected = {
        "generator_coefficients_at_(1,0.5)": [c1, c2],
        "half_interval_commutator_identity_defect": comm_defect,
        "divisibility_defect_alpha_1": dynamics.divisibility_defect(
            gens.exponential(1.0), 1.0, 0.5, 0.0),
    }
    return spec, rows, ["alpha", "divisibility_defect_at_(tmax,tmax/2,0)"], expected


def _demo_network():
    import numpy as np
    from . import dynamics, linops
    lit = linops.matrix_to_literal(0.3 * np.eye(2))
    edges = [["u", "v"], ["v", "w"], ["u", "z"], ["z", "w"]]
    spec = {
        "graph": {"nodes": ["u", "v", "z", "w"], "edges": edges},
        "dim": 2,
        "family": {"kind": "network",
                   "weights": [{"edge": e, "matrix": lit} for e in edges]},
    }
    system = dynamics.build_system(spec)
    net, fam = system["network"], system["family"]
    nodes = net.nodes
    # defects[u, v, w]: the walks from u to w that avoid v, one sweep per v
    defects = np.stack([dynamics.walk_sums(net, range(len(nodes)), avoid=b)
                        for b in range(len(nodes))], axis=1)
    norms = linops.spectral_norm(defects).tolist()
    rows = [[u, v, w, norms[i][j][k]] for i, u in enumerate(nodes)
            for j, v in enumerate(nodes) for k, w in enumerate(nodes)]
    expected = {
        "phi(u,w)_entry": float(fam(("u", "w"))[0, 0].real),
        "defect(u,v,w)_entry": float(
            defects[net.index["u"], net.index["v"], net.index["w"]][0, 0].real),
    }
    return spec, rows, ["from", "through", "to", "defect_norm"], expected


def _demo_lindblad(seed):
    import numpy as np
    from . import dynamics, linops, sampling
    rng = sampling.rng_from_seed(seed)
    h = linops.SIGMA_Z
    kraus = [np.array([[0, 0.6], [0, 0]]), np.array([[0.8, 0], [0, 1.0]])]
    psi = linops.kraus_superop([np.sqrt(0.5) * k for k in kraus])
    gen = dynamics.lindblad_generator(h, psi)
    samples = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(10)]
    rep = dynamics.check_schwarz_generator(gen, samples)
    samples = np.stack(samples)
    alphas = np.geomspace(0.01, 10.0, 25)
    # every alpha's map at every sample: one stacked expm, apply and norm
    phis = linops.expm(alphas[:, None, None] * gen)
    excess = linops.spectral_norm(linops.superop_apply(phis[:, None], samples)) \
        - linops.spectral_norm(samples)
    rows = [[alpha, worst] for alpha, worst in zip(alphas.tolist(), excess.max(axis=1).tolist())]
    spec = {
        "dim": 2,
        "generator": {
            "hamiltonian": linops.matrix_to_literal(h),
            "jump_map_kraus": [linops.matrix_to_literal(np.sqrt(0.5) * k)
                               for k in kraus],
        },
    }
    expected = {"schwarz_conditions_pass": rep.passed,
                "max_condition_defect": rep.max_defect}
    return spec, rows, ["alpha", "max_contraction_excess"], expected


# -- built-in verification suite ----------------------------------------------------

def cmd_verify(args):
    from . import dilate, dynamics, sampling
    rng = sampling.rng_from_seed(args.seed)
    checks = []

    ctx3 = rewrite.complete_context(["a", "b", "c"])
    checks.append(rewrite.check_rule_axioms(ctx3))
    rep = rewrite.check_confluence_bruteforce(ctx3, 4)
    rep.name = "confluence-3-clique"
    checks.append(rep)

    lo4 = rewrite.complete_context([0, 1, 2, 3])
    rep = rewrite.check_confluence_bruteforce(lo4, 4)
    rep.name = "confluence-4-linear-order"
    checks.append(rep)

    checks.append(_group_law_check(ctx3, rng, args.samples * 10))

    dilated = dilate.dilate_exponential(dynamics.build_system(_indivisible_spec()))
    for rep in dilated.verify(rng=rng, tol=args.tol):
        rep.name = "pipeline-C-" + rep.name
        checks.append(rep)

    # every channel is drawn before any is checked: nothing reads rng after
    kraus_lists = [sampling.random_kraus_ops(rng, 2) for _ in range(args.samples)]
    checks.append(dilate.check_kraus_dilations(kraus_lists, args.tol))

    body = _report_body("verify", args, checks)
    _emit(args, body)
    return EXIT_OK if body["passed"] else EXIT_VERIFICATION


def _group_law_check(ctx, rng, triples):
    bad = 0
    for _ in range(triples):
        g = rewrite.random_element(ctx, rng)
        h = rewrite.random_element(ctx, rng)
        k = rewrite.random_element(ctx, rng)
        if rewrite.gmul(rewrite.gmul(g, h), k) != rewrite.gmul(g, rewrite.gmul(h, k)):
            bad += 1
        if rewrite.gmul(g, rewrite.identity()) != g or \
           rewrite.gmul(rewrite.identity(), g) != g:
            bad += 1
        if not rewrite.gmul(g, rewrite.ginv(g)).is_identity():
            bad += 1
    return CheckReport("group-laws", bad == 0, float(bad), 0.0, count=triples)


if __name__ == "__main__":
    sys.exit(main())
