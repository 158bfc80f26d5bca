"""Command line interface: fit, sample, logprob, inspect, verify.

Data moves through CSV (comma delimiter, optional header row via --header);
models live in trip-v1 files. Sampling commands require an explicit --seed
so every run is reproducible byte for byte.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical divergence,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .continuous import TripModel
from .cores import CoreSet
from .errors import (
    ConditionOnNullError,
    DegenerateDistributionError,
    DivergenceError,
    ModelFormatError,
    OracleSizeError,
    TripError,
)
from .fitting import FitConfig, fit_joint_mle, fit_mle
from .joint import JointModel
from .modelfile import load_model, save_model
from . import oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _fmt(x: float) -> str:
    return repr(float(x))


# -- CSV ------------------------------------------------------------------------


def _read_rows(path: str, has_header: bool):
    """Rows as (line_number, cells); header names when requested."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw = [(ln, row) for ln, row in enumerate(csv.reader(fh), start=1)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header = None
    if has_header and raw:
        header = [cell.strip() for cell in raw[0][1]]
        raw = raw[1:]
    rows = [(ln, row) for ln, row in raw if any(cell.strip() for cell in row)]
    if not rows:
        raise DataError("no data rows")
    width = len(rows[0][1])
    for ln, row in rows:
        if len(row) != width:
            raise DataError(f"line {ln}: expected {width} columns, got {len(row)}")
    return header, rows


def _parse_float(cell: str, ln: int) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise DataError(f"line {ln}: not a number: {cell!r}") from exc
    if not np.isfinite(value):
        raise DataError(f"line {ln}: non-finite value {cell!r}")
    return value


def _parse_int(cell: str, ln: int) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise DataError(f"line {ln}: not an integer: {cell!r}") from exc


def _parse_index_list(text: str, what: str) -> list[int]:
    if not text.strip():
        return []
    try:
        out = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad {what}: {text!r}") from exc
    if len(set(out)) != len(out):
        raise UsageError(f"duplicate entries in {what}: {text!r}")
    return out


# -- fit --------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    header, rows = _read_rows(args.data, args.header)
    ncols = len(rows[0][1])
    attr_cols = _parse_index_list(args.attr_cols or "", "--attr-cols")
    for i in attr_cols:
        if not 0 <= i < ncols:
            raise UsageError(f"--attr-cols index {i} out of range for {ncols} columns")
    latent_cols = [i for i in range(ncols) if i not in attr_cols]
    if args.dims is not None and args.dims != len(latent_cols):
        raise UsageError(
            f"--dims {args.dims} does not match {len(latent_cols)} non-attribute columns"
        )
    if not latent_cols:
        raise UsageError("no latent columns left after --attr-cols")

    latents = np.array(
        [[_parse_float(row[i], ln) for i in latent_cols] for ln, row in rows]
    )
    attrs = np.empty((len(rows), len(attr_cols)), dtype=int)
    for pos, i in enumerate(attr_cols):
        for r, (ln, row) in enumerate(rows):
            cell = row[i].strip()
            if cell == args.missing_token:
                attrs[r, pos] = -1
            else:
                value = _parse_int(cell, ln)
                if value < 0:
                    raise DataError(f"line {ln}: negative attribute value {value}")
                attrs[r, pos] = value

    # attribute columns with no observed value carry no information: drop them
    kept, dropped = [], []
    for pos, i in enumerate(attr_cols):
        if (attrs[:, pos] >= 0).any():
            kept.append(pos)
        else:
            dropped.append(i)
    if dropped:
        print(
            f"note: dropping all-missing attribute column(s) {dropped}",
            file=sys.stderr,
        )
    attrs = attrs[:, kept]
    attr_cols = [attr_cols[pos] for pos in kept]
    cards = [int(attrs[:, pos].max()) + 1 for pos in range(len(attr_cols))]

    def on_epoch(epoch: int, nll: float) -> None:
        print(f"{epoch},{_fmt(nll)}")

    names = [header[i] if header else f"attr{pos}" for pos, i in enumerate(attr_cols)]
    # the data is parsed and checked above, so a ValueError here names a bad flag
    try:
        config = FitConfig(
            learning_rate=args.lr,
            epochs=args.epochs,
            batch_size=args.batch_size,
            reinit_period_epochs=args.reinit_period,
            seed=args.seed,
        )
        if attr_cols:
            model = fit_joint_mle(
                latents,
                attrs,
                cards,
                args.components,
                args.core_size,
                config,
                attribute_names=names,
                on_epoch=on_epoch,
            )
        else:
            model = fit_mle(latents, args.components, args.core_size, config, on_epoch)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    save_model(model, args.out)
    return EXIT_OK


# -- sample -----------------------------------------------------------------------


def _parse_given(text: str, model) -> dict[int, int]:
    out: dict[int, int] = {}
    if not text.strip():
        return out
    for token in text.split(","):
        if "=" not in token:
            raise UsageError(f"bad --given entry {token!r}, expected name=value")
        name, _, value = token.partition("=")
        name = name.strip()
        try:
            value = int(value)
        except ValueError as exc:
            raise UsageError(f"bad --given value in {token!r}") from exc
        if isinstance(model, JointModel):
            if name not in model.attribute_names:
                raise UsageError(f"unknown attribute name {name!r}")
            idx = model.attribute_names.index(name)
            if not 0 <= value < model.cardinalities[idx]:
                raise UsageError(
                    f"attribute {name!r} value {value} out of range "
                    f"(cardinality {model.cardinalities[idx]})"
                )
        else:
            try:
                idx = int(name)
            except ValueError as exc:
                raise UsageError(f"unknown variable {name!r}") from exc
            if not 0 <= idx < model.d:
                raise UsageError(f"variable index {idx} out of range")
            if not 0 <= value < model.category_counts[idx]:
                raise UsageError(f"value {value} out of range for variable {idx}")
        if idx in out:
            raise UsageError(f"duplicate --given entry for {name!r}")
        out[idx] = value
    return out


def _cmd_sample(args) -> int:
    model = load_model(args.model)
    rng = np.random.default_rng(args.seed)
    if args.n < 0:
        raise UsageError(f"-n must be >= 0, got {args.n}")
    if args.resample_dims is not None:
        if not isinstance(model, TripModel):
            raise UsageError("--resample-dims requires a continuous model")
        if args.given:
            raise UsageError("--given cannot be combined with --resample-dims")
        if args.start is None:
            raise UsageError("--resample-dims requires --from")
        dims = _parse_index_list(args.resample_dims, "--resample-dims")
        for k in dims:
            if not 0 <= k < model.d:
                raise UsageError(f"--resample-dims index {k} out of range for d={model.d}")
        try:
            start = [float(tok) for tok in args.start.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --from: {args.start!r}") from exc
        if len(start) != model.d or not np.all(np.isfinite(start)):
            raise UsageError(f"--from must list {model.d} finite values")
        current = np.asarray(start, dtype=float)
        for _ in range(args.n):
            current = model.conditional_resample(current, dims, rng=rng)
            print(",".join(_fmt(v) for v in current))
        return EXIT_OK

    if isinstance(model, JointModel):
        attrs = _parse_given(args.given or "", model)
        draws = model.sample_given_attrs_batch(args.n, attrs, rng=rng)
        for row in draws:
            print(",".join(_fmt(v) for v in row))
    elif isinstance(model, TripModel):
        if args.given:
            raise UsageError("continuous models take no --given attributes")
        draws = model.sample_batch(args.n, rng=rng)
        for row in draws:
            print(",".join(_fmt(v) for v in row))
    else:
        given = _parse_given(args.given or "", model)
        draws = model.sample_batch(args.n, given, rng=rng)
        for row in draws:
            print(",".join(str(int(v)) for v in row))
    return EXIT_OK


# -- logprob -----------------------------------------------------------------------


def _cmd_logprob(args) -> int:
    model = load_model(args.model)
    _, rows = _read_rows(args.data, args.header)
    ncols = len(rows[0][1])
    marginal = set(_parse_index_list(args.marginal_dims or "", "--marginal-dims"))
    for i in marginal:
        if not 0 <= i < ncols:
            raise UsageError(f"--marginal-dims index {i} out of range")

    if isinstance(model, JointModel):
        if ncols != model.d + model.c:
            raise DataError(
                f"expected {model.d + model.c} columns (d={model.d} latents "
                f"+ c={model.c} attributes), got {ncols}"
            )
        latent_dims = [k for k in range(model.d) if k not in marginal]
        z = np.array(
            [[_parse_float(row[k], ln) for k in latent_dims] for ln, row in rows]
        )
        attrs = np.empty((len(rows), model.c), dtype=int)
        for i in range(model.c):
            col = model.d + i
            for r, (ln, row) in enumerate(rows):
                cell = row[col].strip()
                if col in marginal or cell == args.missing_token:
                    attrs[r, i] = -1
                    continue
                attrs[r, i] = _parse_int(cell, ln)
                if not 0 <= attrs[r, i] < model.cardinalities[i]:
                    raise DataError(
                        f"line {ln}: attribute {model.attribute_names[i]!r} value "
                        f"{attrs[r, i]} out of range (cardinality {model.cardinalities[i]})"
                    )
        logps = model.log_joints(latent_dims, z, attrs)
    elif isinstance(model, TripModel):
        if ncols != model.d:
            raise DataError(f"expected {model.d} columns, got {ncols}")
        dims = [k for k in range(model.d) if k not in marginal]
        values = np.array([[_parse_float(row[k], ln) for k in dims] for ln, row in rows])
        logps = model.log_densities(dims, values)
    else:
        if ncols != model.d:
            raise DataError(f"expected {model.d} columns, got {ncols}")
        dims = [k for k in range(model.d) if k not in marginal]
        values = np.array([[_parse_int(row[k], ln) for k in dims] for ln, row in rows])
        for pos, k in enumerate(dims):
            bad = (values[:, pos] < 0) | (values[:, pos] >= model.category_counts[k])
            if bad.any():
                ln = rows[int(np.argmax(bad))][0]
                raise DataError(f"line {ln}: value out of range for variable {k}")
        logps = model.log_marginals(dims, values)

    for i, lp in enumerate(logps):
        print(f"{i},{_fmt(lp)}")
    print(f"mean,{_fmt(np.mean(logps))}")
    return EXIT_OK


# -- inspect ------------------------------------------------------------------------


def _cmd_inspect(args) -> int:
    model = load_model(args.model)
    if isinstance(model, JointModel):
        print("kind: joint")
        print(f"latent dimensions: {model.d}")
        print(f"components per dimension: {list(model.trip.component_counts)}")
        print(f"core sizes: {list(model.trip.cores.core_sizes)}")
        print(f"attributes: {model.c}")
        for name, card in zip(model.attribute_names, model.cardinalities):
            print(f"  {name}: cardinality {card}")
        print(f"ring order: {model.permutation.tolist()}")
        stats = model.trip.param_stats()
        extra = sum(int(np.prod(a.shape)) for a in model.attribute_cores)
        count = stats.param_count + extra
        print(f"parameters: {count}")
        print(f"memory: {8 * count} bytes ({8 * count / 2**20:.3g} MB)")
    elif isinstance(model, TripModel):
        print("kind: continuous")
        print(f"dimensions: {model.d}")
        print(f"components per dimension: {list(model.component_counts)}")
        print(f"core sizes: {list(model.cores.core_sizes)}")
        stats = model.param_stats()
        print(f"parameters: {stats.param_count}")
        print(f"memory: {stats.memory_bytes} bytes ({stats.memory_mib:.3g} MB)")
    else:
        print("kind: discrete")
        print(f"dimensions: {model.d}")
        print(f"categories per variable: {list(model.category_counts)}")
        print(f"core sizes: {list(model.core_sizes)}")
        count = sum(int(np.prod(c.shape)) for c in model.cores)
        print(f"parameters: {count}")
        print(f"memory: {8 * count} bytes ({8 * count / 2**20:.3g} MB)")
    return EXIT_OK


# -- verify -------------------------------------------------------------------------

_VERIFY_TOL = 1e-8


def _rel_close(log_a: float, log_b: float, tol: float = _VERIFY_TOL) -> bool:
    if log_a == -np.inf and log_b == -np.inf:
        return True
    return abs(np.expm1(log_a - log_b)) <= tol


def _verify_discrete(model: CoreSet) -> list[tuple[str, bool]]:
    dense = oracle.densify(model)
    rng = np.random.default_rng(0)
    checks = []
    ok = True
    for _ in range(25):
        mask = {
            k: int(rng.integers(model.category_counts[k]))
            for k in range(model.d)
            if rng.random() < 0.6
        }
        reference = oracle.dense_marginal(dense, mask)
        got = model.log_marginal(mask)
        ok &= _rel_close(got, np.log(reference) if reference > 0 else -np.inf)
    checks.append(("marginals match enumeration", bool(ok)))
    ok = True
    for k in range(model.d):
        total = sum(
            np.exp(model.log_marginal({k: v})) for v in range(model.category_counts[k])
        )
        ok &= abs(total - 1.0) <= 1e-10
    checks.append(("single-variable marginals sum to 1", bool(ok)))
    return checks


def _verify_continuous(model: TripModel) -> list[tuple[str, bool]]:
    weights, means, stds = oracle.enumerate_modes(model)
    rng = np.random.default_rng(0)
    checks = []
    ok = True
    for _ in range(25):
        z = {
            k: float(rng.normal(np.mean(means[:, k]), 1.0 + np.mean(stds[:, k])))
            for k in range(model.d)
            if rng.random() < 0.7
        }
        reference = oracle.dense_density(model, z)
        ok &= _rel_close(
            model.log_density(z), np.log(reference) if reference > 0 else -np.inf
        )
    checks.append(("densities match mode enumeration", bool(ok)))
    ok = True
    for _ in range(5):
        k = int(rng.integers(model.d))
        prefix = [float(rng.normal()) for _ in range(k)]
        got = model.conditional_mixture_weights(k, prefix)
        want = oracle.dense_mixture_weights(model, k, dict(enumerate(prefix)))
        ok &= bool(np.allclose(got, want, rtol=_VERIFY_TOL, atol=1e-12))
        ok &= abs(got.sum() - 1.0) <= 1e-12
    checks.append(("conditional component weights match enumeration", bool(ok)))
    return checks


def _verify_joint(model: JointModel) -> list[tuple[str, bool]]:
    rng = np.random.default_rng(0)
    checks = []
    ok = True
    for _ in range(10):
        z = {k: float(rng.normal()) for k in range(model.d) if rng.random() < 0.7}
        attrs = {
            i: int(rng.integers(model.cardinalities[i]))
            for i in range(model.c)
            if rng.random() < 0.5
        }
        for i in range(model.c):
            rest = {j: v for j, v in attrs.items() if j != i}
            total = sum(
                np.exp(model.log_joint(z, {**rest, i: y}))
                for y in range(model.cardinalities[i])
            )
            marg = np.exp(model.log_joint(z, rest))
            ok &= abs(total - marg) <= 1e-10 * max(marg, 1.0)
    checks.append(("attribute sums match marginals", bool(ok)))
    ok = True
    for _ in range(5):
        z = rng.normal(size=model.d)
        for i in range(model.c):
            total = sum(
                np.exp(model.log_attr_given_z(z, {i: y}))
                for y in range(model.cardinalities[i])
            )
            ok &= abs(total - 1.0) <= 1e-10
    checks.append(("attribute conditionals normalize", bool(ok)))
    return checks


def _cmd_verify(args) -> int:
    model = load_model(args.model)
    try:
        if isinstance(model, JointModel):
            checks = _verify_joint(model)
            lattice = model.trip.cores
            if int(np.prod(lattice.category_counts)) <= oracle.DENSE_CAP:
                checks += [
                    (f"latent {name}", passed)
                    for name, passed in _verify_continuous(model.trip)
                ]
        elif isinstance(model, TripModel):
            checks = _verify_continuous(model)
        else:
            checks = _verify_discrete(model)
    except OracleSizeError as exc:
        print(f"refusing to verify: {exc}", file=sys.stderr)
        return EXIT_DATA
    failed = False
    for name, passed in checks:
        print(f"{name}: {'ok' if passed else 'FAIL'}")
        failed |= not passed
    return EXIT_VERIFY if failed else EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to CSV data")
    p.add_argument("--data", required=True, help="CSV with d numeric columns")
    p.add_argument("--dims", type=int, default=None, help="expected latent column count")
    p.add_argument("--components", type=int, required=True, help="Gaussians per dimension")
    p.add_argument("--core-size", type=int, required=True, help="ring matrix size")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reinit-period", type=int, default=0,
                   help="re-initialize mixtures and cores every k epochs (0 = never)")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--attr-cols", default=None,
                   help="comma-separated CSV column indices holding attributes")
    p.add_argument("--missing-token", default="?",
                   help="cell marking a missing attribute value")
    p.add_argument("--header", action="store_true", help="CSV has a header row")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sample", help="draw samples from a model")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, required=True, help="number of rows to emit")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--given", default=None,
                   help='conditioning values, e.g. "hat=1,smile=0"')
    p.add_argument("--resample-dims", default=None,
                   help="dimensions to redraw conditioned on the rest (mode hopping)")
    p.add_argument("--from", dest="start", default=None,
                   help="comma-separated starting vector for --resample-dims")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("logprob", help="log-probabilities of CSV rows under a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--marginal-dims", default=None,
                   help="CSV columns to marginalize instead of observe")
    p.add_argument("--missing-token", default="?")
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=_cmd_logprob)

    p = sub.add_parser("inspect", help="summarize a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("verify", help="cross-check a small model against enumeration")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (DegenerateDistributionError, ConditionOnNullError, OracleSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TripError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
