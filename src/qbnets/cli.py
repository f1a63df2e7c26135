"""Command-line front end.

Subcommands: dsep, infer, entropy, esq, from-density, reduce, verify.
Exit codes: 0 on success, 1 on domain errors (impossible evidence, a net
that cannot be reduced, a non-polytree handed to message passing) and on
a verify report that did not pass, which is still printed, 2 on usage
and input-format errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import io
from .construct import density_to_qbnet, reduce_qbnet
from .errors import QbnetError
from .graph import Multinode, d_separated
from .network import _require_unobserved, posterior_oracle
from .qbp import propagate_polytree
from .qinfo import (
    quantum_cmi,
    quantum_conditional_entropy,
    quantum_mutual_information,
    von_neumann_entropy,
)
from .squashed import squashed_entanglement
from .verify import bp_campaign, check_dsep_forward, search_dsep_witness


def _load(path: str) -> dict:
    try:
        return io.load_json(path)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _names_to_multinode(dag, spec: str) -> Multinode:
    names = [s for s in (spec or "").split(",") if s]
    return Multinode(dag.index(name) for name in names)


def _parse_evidence(dag, spec: str) -> dict[int, int]:
    evidence = {}
    for item in (s for s in (spec or "").split(",") if s):
        if "=" not in item:
            raise ValueError(f"evidence item {item!r} is not name=state")
        name, _, value = item.partition("=")
        node = dag.index(name)
        if node in evidence:
            raise ValueError(f"evidence names node {name!r} twice")
        evidence[node] = int(value)
    return evidence


def _cmd_dsep(args) -> int:
    obj = _load(args.model)
    dag = io.dag_from_json(obj)
    result = d_separated(
        dag,
        _names_to_multinode(dag, args.a),
        _names_to_multinode(dag, args.b),
        _names_to_multinode(dag, args.z),
    )
    print("true" if result else "false")
    return 0


def _cmd_infer(args) -> int:
    net = io.qbnet_from_json(_load(args.model))
    dag = net.dag
    evidence = _parse_evidence(dag, args.evidence)
    if args.query:
        query = list(_names_to_multinode(dag, args.query))
        _require_unobserved(query, evidence)
    else:
        query = [i for i in range(dag.node_count) if i not in evidence]

    if args.method == "bp":
        beliefs = propagate_polytree(net, evidence)
        tables = [beliefs[node].table for node in query]
    else:
        # one dense joint over the whole (ascending) query, then its marginals
        joint = posterior_oracle(net, query, evidence)
        axes = range(len(query))
        tables = [joint.sum(axis=tuple(k for k in axes if k != axis)) for axis in axes]
    posteriors = {dag.name(node): [float(p) for p in t] for node, t in zip(query, tables)}
    print(json.dumps({"method": args.method, "posteriors": posteriors}))
    return 0


def _parse_groups(spec: str) -> list[list[str]]:
    return [[n for n in g.split(",") if n] for g in spec.split(":")]


def _cmd_entropy(args) -> int:
    rho = io.density_from_json(_load(args.state))
    if args.conditional:
        y = [n for n in args.conditional.split(",") if n]
        x = [n for n in rho.names if n not in y]
        value = quantum_conditional_entropy(rho, x, y)
    elif args.mutual:
        groups = _parse_groups(args.mutual)
        if len(groups) != 2:
            raise ValueError("--mutual wants two groups, as in x:y")
        value = quantum_mutual_information(rho, groups[0], groups[1])
    elif args.cmi:
        head, _, z = args.cmi.partition("|")
        groups = _parse_groups(head)
        if len(groups) != 2 or not z:
            raise ValueError("--cmi wants x:y|z")
        value = quantum_cmi(rho, groups[0], groups[1], [n for n in z.split(",") if n])
    else:
        value = von_neumann_entropy(rho)
    print(value)
    return 0


def _cmd_esq(args) -> int:
    rho = io.density_from_json(_load(args.state))
    result = squashed_entanglement(
        rho,
        lam_card=args.lam_card,
        restarts=args.restarts,
        budget=args.budget,
        seed=args.seed,
    )
    print(
        json.dumps(
            {
                "value": result.value,
                "restart": result.restart,
                "evaluations": result.evaluations,
            }
        )
    )
    if args.witness:
        io.save_json(args.witness, io.extension_to_json(result.witness))
    return 0


def _cmd_from_density(args) -> int:
    ext = io.extension_from_json(_load(args.extension))
    net = density_to_qbnet(ext)
    io.save_json(args.output, io.qbnet_to_json(net))
    return 0


def _cmd_reduce(args) -> int:
    net = io.qbnet_from_json(_load(args.model))
    io.save_json(args.output, io.qbnet_to_json(reduce_qbnet(net)))
    return 0


def _cmd_verify(args) -> int:
    if args.what == "bp":
        report = bp_campaign(
            count=args.trials,
            max_nodes=args.max_nodes,
            max_card=args.max_card,
            seed=args.seed,
        )
    elif not args.dag:
        raise ValueError("verify dsep needs --dag")
    else:
        dag = io.dag_from_json(_load(args.dag))
        a = _names_to_multinode(dag, args.a)
        b = _names_to_multinode(dag, args.b)
        z = _names_to_multinode(dag, args.z)
        if d_separated(dag, a, b, z):
            report = check_dsep_forward(dag, a, b, z, trials=args.trials, seed=args.seed)
        else:
            report = search_dsep_witness(dag, a, b, z, trials=args.trials, seed=args.seed)
    print(report.to_json())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbnets",
        description="quantum Bayesian networks: inference, information, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsep", help="print whether a is d-separated from b given z")
    p.add_argument("model", help="net or bare graph JSON file")
    p.add_argument("--a", required=True, help="comma-separated node names")
    p.add_argument("--b", required=True, help="comma-separated node names")
    p.add_argument("--z", default="", help="comma-separated node names")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("infer", help="posterior tables given evidence")
    p.add_argument("model")
    p.add_argument("--evidence", default="", help="name=state,name=state,...")
    p.add_argument("--method", choices=("bp", "oracle"), default="bp")
    p.add_argument("--query", default="", help="comma-separated node names")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("entropy", help="entropies of a stored state, in nats")
    p.add_argument("state")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--conditional", help="conditioning labels, comma-separated")
    g.add_argument("--mutual", help="two label groups, as in x:y")
    g.add_argument("--cmi", help="x:y|z")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("esq", help="squashed entanglement of a two-party state")
    p.add_argument("state")
    p.add_argument("--lam-card", type=int, default=None)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument(
        "--budget", type=int, default=2000,
        help="value-and-gradient evaluations per restart, at least 1",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witness", help="write the witness extension here")
    p.set_defaults(func=_cmd_esq)

    p = sub.add_parser("from-density", help="build the five-node net of an extension")
    p.add_argument("extension")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_from_density)

    p = sub.add_parser("reduce", help="fuse a construction-shaped net to three nodes")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="run a verification campaign, print a JSON report")
    p.add_argument("what", choices=("dsep", "bp"))
    p.add_argument("--dag", help="graph JSON file (dsep only)")
    p.add_argument("--a", default="")
    p.add_argument("--b", default="")
    p.add_argument("--z", default="")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nodes", type=int, default=10)
    p.add_argument("--max-card", type=int, default=3)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QbnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
