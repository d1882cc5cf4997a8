"""Command-line surface.

Subcommands cover the full pipeline: synthesize a coin program (built-in
target or schedule file), simulate it, compile it to a pulse schedule,
sample finite-count statistics, score similarity/entropy, verify the
pairwise purity criterion, extract random bits, and regenerate the full
set of reference data files.

Exit codes: 0 ok, 2 parse error, 3 infeasible schedule, 4 pulse
collision, 5 domain or state error, or a size that runs out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import fileio, measure, noise, pulses, synth, walk
from .errors import (
    CoinWalkError,
    CollisionError,
    InfeasibleScheduleError,
    ParseError,
)
from .state import CoinProgram, position_distribution

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_COLLISION = 4
EXIT_DOMAIN = 5

# Exit code of an error: the first class in this order that it is an instance of.
EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (InfeasibleScheduleError, EXIT_INFEASIBLE),
    (CollisionError, EXIT_COLLISION),
    (CoinWalkError, EXIT_DOMAIN),
)


@functools.cache  # one parser per process; each parse_args call fills a new Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coinwalk", description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"base RNG seed (default {DEFAULT_SEED})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="build a coin program")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", choices=("hadamard", "gaussian", "uniform"))
    group.add_argument("--schedule", type=Path, help="target schedule file (t x p lines)")
    p.add_argument("--steps", type=int, help="step count for built-in targets")
    p.add_argument("--no-final-layer", action="store_true",
                   help="omit the disentangling layer")
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(run=_cmd_synthesize)

    p = sub.add_parser("simulate", help="run a program, one distribution file per step")
    p.add_argument("program", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("compile", help="compile a program to a pulse schedule")
    p.add_argument("program", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--calibration", type=Path, help="anchor file (phase voltage lines)")
    p.add_argument("--t-ns", type=float, default=None)
    p.add_argument("--dt-ns", type=float, default=None)
    # Each timing flag's dest is its TimingModel field; metavar keeps the flag's name.
    p.add_argument("--sagnac-ns", type=float, dest="sagnac_delay_ns", metavar="SAGNAC_NS")
    p.add_argument("--width-ns", type=float, dest="pulse_width_ns", metavar="WIDTH_NS")
    p.add_argument("--rep-ns", type=float, dest="rep_period_ns", metavar="REP_NS")
    p.add_argument("--launch-offset", type=float, default=0.0)
    p.set_defaults(run=_cmd_compile)

    p = sub.add_parser("sample", help="multinomial counts with bootstrap error bars")
    p.add_argument("distribution", type=Path)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--resamples", type=int, default=500)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(run=_cmd_sample, seeded=True)

    p = sub.add_parser("entropy", help="Shannon entropy of a distribution, in bits")
    p.add_argument("distribution", type=Path)
    p.set_defaults(run=_cmd_entropy)

    p = sub.add_parser("similarity", help="overlap sum sqrt(p q) of two distributions")
    p.add_argument("dist_a", type=Path)
    p.add_argument("dist_b", type=Path)
    p.set_defaults(run=_cmd_similarity)

    p = sub.add_parser("verify-purity", help="pairwise purity report for a built-in walk")
    p.add_argument("--target", choices=("gaussian", "uniform"), required=True)
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="off-diagonal retention (1 = pure)")
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(run=_cmd_verify_purity)

    p = sub.add_parser("extract-bits", help="draw positions and emit random bits")
    p.add_argument("distribution", type=Path)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(run=_cmd_extract_bits, seeded=True)

    p = sub.add_parser("reproduce", help="regenerate all reference data files")
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(run=_cmd_reproduce, seeded=True)
    return parser


def _built_in_program(target: str, steps: int) -> CoinProgram:
    if steps is None or steps < 1:
        raise ParseError("--steps must be a positive integer for built-in targets")
    if target == "hadamard":
        return walk.hadamard_program(steps, walk.circular_initial())
    return synth.gaussian_program(steps) if target == "gaussian" else synth.uniform_program(steps)


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _dist(path: Path) -> dict[int, float]:
    return fileio.distribution_from_text(_read(path))


def _cmd_synthesize(args) -> None:
    if args.target is not None:
        prog = _built_in_program(args.target, args.steps)
    else:
        prog = synth.schedule_program(fileio.schedule_targets_from_text(_read(args.schedule)))
    if args.no_final_layer:
        prog = replace(prog, final_layer=None)
    args.output.write_text(fileio.program_to_text(prog))


def _cmd_simulate(args) -> None:
    prog = fileio.program_from_text(_read(args.program))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for report in walk.run_program(prog):
        path = args.out_dir / f"dist_t{report.step:02d}.txt"
        path.write_text(fileio.distribution_to_text(report.distribution))


def _timing_model(args) -> pulses.TimingModel:
    given = {f.name: getattr(args, f.name) for f in fields(pulses.TimingModel)}
    return pulses.TimingModel(**{k: v for k, v in given.items() if v is not None})


def _cmd_compile(args) -> None:
    prog = fileio.program_from_text(_read(args.program))
    cal = pulses.Calibration()
    if args.calibration is not None:
        cal = fileio.calibration_from_text(_read(args.calibration))
    schedule = pulses.compile_schedule(
        prog, _timing_model(args), cal, launch_offset_ns=args.launch_offset
    )
    args.output.write_text(fileio.pulse_schedule_to_text(schedule))


def _cmd_sample(args) -> None:
    dist = _dist(args.distribution)
    counts = noise.sample_counts(dist, args.events, args.seed)
    errors = noise.bootstrap_errorbars(counts, args.resamples, args.seed + 1, theory=dist)
    n = sum(counts.values())
    lines = [f"# events {n}  sigma_F {errors.sigma_similarity!r}"]
    for x in sorted(counts):
        lines.append(f"{x} {counts[x]} {errors.sigma_p[x]!r}")
    args.output.write_text("\n".join(lines) + "\n")


def _cmd_entropy(args) -> None:
    print(repr(measure.shannon_entropy(_dist(args.distribution))))


def _cmd_similarity(args) -> None:
    print(repr(measure.similarity(_dist(args.dist_a), _dist(args.dist_b))))


def _purity(target: str, steps: int, gamma: float) -> list[measure.PurityRecord]:
    final = walk._final_state(_built_in_program(target, steps))
    return measure.purity_criterion(final, gamma=gamma)


def _cmd_verify_purity(args) -> None:
    lines = ["# x  |rho_x,x+2|^2  rho_xx*rho_x+2,x+2  pass"]
    for r in _purity(args.target, args.steps, args.gamma):
        lines.append(f"{r.x} {r.lhs:.6f} {r.rhs:.6f} {'yes' if r.passed else 'no'}")
    text = "\n".join(lines) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_extract_bits(args) -> None:
    counts = noise.sample_counts(_dist(args.distribution), args.events, args.seed)
    samples = [x for x in sorted(counts) for _ in range(counts[x])]
    result = measure.extract_bits(samples, args.steps)
    args.output.write_text(result.bits + "\n")
    print(f"accepted {result.n_accepted} samples, rejected {result.n_rejected}, "
          f"{result.bits_per_sample} bits each", file=sys.stderr)


def _cmd_reproduce(args) -> None:
    out, seed = args.out_dir, args.seed
    out.mkdir(parents=True, exist_ok=True)
    steps = 11
    names = ("hadamard", "gaussian", "uniform")
    programs = {name: _built_in_program(name, steps) for name in names}
    reports = {name: walk.run_program(p) for name, p in programs.items()}

    # Step-11 distributions: theory next to jittered finite-count emulation.
    for i, (name, fig) in enumerate(zip(names, ("fig2a", "fig2b", "fig2c"))):
        theory = reports[name][steps].distribution
        nm = noise.NoiseModel(coin_angle_jitter_rad=0.01, seed=seed + 10 * i)
        noisy = walk._final_state(noise.perturb_program(programs[name], nm))
        counts = noise.sample_counts(position_distribution(noisy), 10_000, seed + 10 * i + 1)
        n = sum(counts.values())
        sampled = {x: c / n for x, c in counts.items()}
        errors = noise.bootstrap_errorbars(counts, 500, seed + 10 * i + 2, theory=theory)
        f_val = measure.similarity(sampled, theory)
        lines = [
            f"# {name} step {steps}: x P_theory P_sampled sigma",
            f"# similarity {f_val!r} sigma_F {errors.sigma_similarity!r}",
        ]
        for x in sorted(theory):
            lines.append(f"{x} {theory[x]!r} {sampled.get(x, 0.0)!r} "
                         f"{errors.sigma_p.get(x, 0.0)!r}")
        (out / f"{fig}.txt").write_text("\n".join(lines) + "\n")

    # Odd-step distributions for the two engineered walks.
    for name, fig in (("gaussian", "fig3a"), ("uniform", "fig3b")):
        lines = [f"# {name}: t x P"]
        for t in range(1, steps + 1, 2):
            for x, prob in sorted(reports[name][t].distribution.items()):
                lines.append(f"{t} {x} {prob!r}")
        (out / f"{fig}.txt").write_text("\n".join(lines) + "\n")

    # Entropy versus step for the three walks.
    lines = ["# t R_hadamard R_gaussian R_uniform"]
    for t in range(1, steps + 1):
        values = [measure.shannon_entropy(reports[n][t].distribution) for n in names]
        lines.append(f"{t} " + " ".join(repr(v) for v in values))
    (out / "fig4.txt").write_text("\n".join(lines) + "\n")

    # Pairwise purity tables for the ideal 9-step walks.
    for name, table in (("uniform", "table1"), ("gaussian", "table2")):
        lines = [f"# {name} 9-step: x |rho_x,x+2|^2 rho_xx*rho_x+2,x+2"]
        for r in _purity(name, 9, 1.0):
            lines.append(f"{r.x} {r.lhs:.4f} {r.rhs:.4f}")
        (out / f"{table}.txt").write_text("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "seeded", False):
        print(f"seed {args.seed}", file=sys.stderr)
    try:
        args.run(args)
    except CoinWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    except MemoryError:  # numpy's too, for an array of a size that cannot be allocated
        # Each handler is named for its subcommand: _cmd_extract_bits runs extract-bits.
        command = args.run.__name__.removeprefix("_cmd_").replace("_", "-")
        print(f"error: {command} ran out of memory", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
