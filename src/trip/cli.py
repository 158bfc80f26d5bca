"""Command line interface: fit, sample, logprob, inspect, verify.

Data moves through CSV (comma delimiter, optional header row via --header);
models live in trip-v1 files. Sampling commands require an explicit --seed
so every run is reproducible byte for byte.

Every command sees a model as one table of CSV columns: a continuous model's
dimensions, a discrete model's variables, or a joint model's latents followed
by its attributes. A real column takes finite floats; a categorical column
takes 0..C-1, or --missing-token, which sums that column out for the row.
``fit`` reads the same cells, with --attr-cols naming its categorical
columns. ``sample --given`` fixes categorical columns by name: attribute
names on a joint model, variable indices on a discrete one.

Exit codes: 0 success, 1 usage error (an --out that cannot be written fails
before fitting), 2 data error, 3 numerical divergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from collections import namedtuple

import numpy as np

from .errors import DivergenceError, ModelFormatError, OracleSizeError, TripError
from .fitting import FitConfig, fit_joint_mle, fit_mle
from .modelfile import load_model, model_kind, save_model
from . import oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY = 4

# fit infers each attribute's cardinality from its largest cell; cells past
# this many categories are refused, so that one bad cell cannot size a core
MAX_CATEGORIES = 2**16


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _fmt(x: float) -> str:
    return repr(float(x))


# -- the model view -------------------------------------------------------------


class _View(namedtuple("_View", "columns evaluate sample resample describe params checks")):
    """What the commands need to know about one kind of model.

    ``columns`` are the CSV columns as (name, cardinality), ``None`` marking a
    real-valued latent. ``evaluate(dims, values)`` is the log probability of
    each row of ``values``, whose columns are the table columns ``dims`` (-1
    in a categorical cell when missing); every other column is summed out.
    ``sample(n, given, rng)`` draws rows of the leading columns with the
    categorical columns in ``given`` fixed. ``resample`` is the model's
    ``conditional_resample``, or None. ``describe`` holds the ``inspect``
    lines above the parameter count, ``params`` the parameter arrays, and
    ``checks()`` runs the ``verify`` checks as (name, passed) pairs.
    """


def _view(model) -> _View:
    """The view of ``model``; the only code here that looks at its kind."""
    kind = model_kind(model)
    if kind == "discrete":
        counts = model.category_counts
        return _View(
            [(str(k), card) for k, card in enumerate(counts)],
            model.log_marginals,
            lambda n, given, rng: model.sample_batch(n, given, rng=rng),
            None,
            ["kind: discrete", f"dimensions: {model.d}",
             f"categories per variable: {list(counts)}", f"core sizes: {list(model.core_sizes)}"],
            list(model.cores),
            lambda: _verify_discrete(model),
        )
    trip = model.trip if kind == "joint" else model
    latents = [(str(k), None) for k in range(trip.d)]
    lattice = [f"components per dimension: {list(trip.component_counts)}",
               f"core sizes: {list(trip.cores.core_sizes)}"]
    params = [*trip.cores.cores, *trip.means, *trip.log_stds]
    if kind == "continuous":
        return _View(
            latents,
            model.log_densities,
            lambda n, given, rng: model.sample_batch(n, rng=rng),
            model.conditional_resample,
            ["kind: continuous", f"dimensions: {model.d}", *lattice],
            params,
            lambda: _verify_continuous(model),
        )
    d, attrs = model.d, list(zip(model.attribute_names, model.cardinalities))
    return _View(
        latents + attrs,
        lambda dims, values: _log_joints(model, dims, values),
        lambda n, given, rng: model.sample_given_attrs_batch(
            n, {j - d: v for j, v in given.items()}, rng=rng),
        None,
        ["kind: joint", f"latent dimensions: {d}", *lattice, f"attributes: {model.c}",
         *(f"  {name}: cardinality {card}" for name, card in attrs),
         f"ring order: {model.permutation.tolist()}"],
        params + list(model.attribute_cores),
        lambda: _verify_joint(model),
    )


def _log_joints(model, dims: list[int], values: np.ndarray) -> np.ndarray:
    """``JointModel.log_joints`` on ascending table columns: the observed
    latents come first, then the observed attributes."""
    k = sum(j < model.d for j in dims)
    attrs = np.full((len(values), model.c), -1)
    for p, j in enumerate(dims[k:], start=k):
        attrs[:, j - model.d] = values[:, p]
    return model.log_joints(dims[:k], values[:, :k], attrs)


# -- CSV ------------------------------------------------------------------------


def _read_rows(path: str, has_header: bool):
    """Rows as (line_number, cells); header names when requested."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw = [(ln, row) for ln, row in enumerate(csv.reader(fh), start=1)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
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


def _parse_cell(cell: str, card: int | None, missing: str | None) -> "float | int":
    """A real cell (``card`` None) as a finite float; a categorical cell as an
    integer in 0..card-1, or -1 for the missing token. Flag values are cells
    too, with no missing token."""
    if card is None:
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(f"not a number: {cell!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {cell!r}")
        return value
    cell = cell.strip()
    if cell == missing:
        return -1
    try:
        value = int(cell)
    except ValueError:
        raise ValueError(f"not an integer: {cell!r}") from None
    if not 0 <= value < card:
        raise ValueError(f"value {value} out of range 0..{card - 1}")
    return value


def _parse_cells(rows, columns: list[tuple[int, int | None]], missing: str) -> np.ndarray:
    """The cells of ``columns``, given as (index, cardinality), as an
    ``(n, len(columns))`` array, float when any column is real. Parsed row by
    row, so the first bad line is the one reported, and streamed into the
    array, so no row's parsed values outlive it."""

    def cells():
        for ln, row in rows:
            try:
                yield from [_parse_cell(row[j], card, missing) for j, card in columns]
            except ValueError as exc:
                raise DataError(f"line {ln}: {exc}") from exc

    dtype = float if any(card is None for _, card in columns) else np.int64
    shape = (len(rows), len(columns))
    return np.fromiter(cells(), dtype, count=shape[0] * shape[1]).reshape(shape)


def _flag_cells(flag: str, tokens: list[str], card: int | None) -> list:
    """The values of ``flag``, each read by :func:`_parse_cell` as a cell of ``card``."""
    try:
        return [_parse_cell(tok, card, None) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _parse_index_list(text: str, what: str, bound: int) -> list[int]:
    """Distinct comma-separated indices, each a categorical cell of cardinality ``bound``."""
    if not text.strip():
        return []
    out = _flag_cells(what, text.split(","), bound)
    if len(set(out)) != len(out):
        raise UsageError(f"duplicate entries in {what}: {text!r}")
    return out


# -- fit --------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    folder = os.path.dirname(args.out) or "."
    if os.path.isdir(args.out or ".") or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise UsageError(f"cannot write --out {args.out!r}: it is a directory, "
                         "or its directory is missing or read-only")
    header, rows = _read_rows(args.data, args.header)
    ncols = len(rows[0][1])
    attr_cols = _parse_index_list(args.attr_cols or "", "--attr-cols", ncols)
    latent_cols = [i for i in range(ncols) if i not in attr_cols]
    if args.dims is not None and args.dims != len(latent_cols):
        raise UsageError(
            f"--dims {args.dims} does not match {len(latent_cols)} non-attribute columns"
        )
    if not latent_cols:
        raise UsageError("no latent columns left after --attr-cols")
    cells = _parse_cells(rows, [(i, MAX_CATEGORIES if i in attr_cols else None)
                                for i in range(ncols)], args.missing_token)
    latents, attrs = cells[:, latent_cols], cells[:, attr_cols]

    # attribute columns with no observed value carry no information: drop them
    seen = (attrs >= 0).any(axis=0)
    if not seen.all():
        dropped = [i for i, s in zip(attr_cols, seen) if not s]
        print(f"note: dropping all-missing attribute column(s) {dropped}", file=sys.stderr)
    attrs, attr_cols = attrs[:, seen], [i for i, s in zip(attr_cols, seen) if s]
    cards = [int(top) + 1 for top in attrs.max(axis=0)]

    def on_epoch(epoch: int, nll: float) -> None:
        print(f"{epoch},{_fmt(nll)}")

    names = [header[i] if header else f"attr{pos}" for pos, i in enumerate(attr_cols)]
    # the data is parsed and checked above, so a ValueError here names a bad flag
    try:
        config = FitConfig(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size,
                           reinit_period_epochs=args.reinit_period, seed=args.seed)
        if attr_cols:
            model = fit_joint_mle(latents, attrs, cards, args.components, args.core_size, config,
                                  attribute_names=names, on_epoch=on_epoch)
        else:
            model = fit_mle(latents, args.components, args.core_size, config, on_epoch)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except MemoryError as exc:
        raise DataError(f"a model with {args.components} components, core size "
                        f"{args.core_size} and attribute cardinalities {cards} "
                        f"is too large: {exc}") from exc
    save_model(model, args.out)
    return EXIT_OK


# -- sample -----------------------------------------------------------------------


def _parse_given(text: str, columns) -> dict[int, int]:
    """--given ``name=value`` entries as {column: value} over categorical columns."""
    index = {name: j for j, (name, card) in enumerate(columns) if card is not None}
    out: dict[int, int] = {}
    if not text.strip():
        return out
    for token in text.split(","):
        if "=" not in token:
            raise UsageError(f"bad --given entry {token!r}, expected name=value")
        name, _, value = token.partition("=")
        name = name.strip()
        if name not in index:
            known = ", ".join(index) or "none on this model"
            raise UsageError(f"unknown attribute or variable {name!r} (known: {known})")
        j = index[name]
        if j in out:
            raise UsageError(f"duplicate --given entry for {name!r}")
        out[j] = _flag_cells(f"--given {name}", [value], columns[j][1])[0]
    return out


def _resample_steps(args, view: _View, rng):
    """The --resample-dims trajectory: one row per step, each redrawn from the last."""
    if view.resample is None:
        raise UsageError("--resample-dims requires a continuous model")
    if args.given:
        raise UsageError("--given cannot be combined with --resample-dims")
    if args.start is None:
        raise UsageError("--resample-dims requires --from")
    d = len(view.columns)
    dims = _parse_index_list(args.resample_dims, "--resample-dims", d)
    start = _flag_cells("--from", args.start.split(","), None)
    if len(start) != d:
        raise UsageError(f"--from must list {d} values")
    current = np.asarray(start, dtype=float)
    for _ in range(args.n):
        current = view.resample(current, dims, rng=rng)
        yield current


def _cmd_sample(args) -> int:
    view = _view(load_model(args.model))
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    if args.n < 0:
        raise UsageError(f"-n must be >= 0, got {args.n}")
    if args.resample_dims is None:
        rows = view.sample(args.n, _parse_given(args.given or "", view.columns), rng)
    else:
        rows = _resample_steps(args, view, rng)
    for row in rows:
        print(",".join(_fmt(v) if card is None else str(int(v))
                       for v, (_, card) in zip(row, view.columns)))
    return EXIT_OK


# -- logprob -----------------------------------------------------------------------


def _cmd_logprob(args) -> int:
    view = _view(load_model(args.model))
    _, rows = _read_rows(args.data, args.header)
    ncols = len(rows[0][1])
    marginal = set(_parse_index_list(args.marginal_dims or "", "--marginal-dims", ncols))
    if ncols != len(view.columns):
        raise DataError(f"expected {len(view.columns)} columns, got {ncols}")
    dims = [j for j in range(ncols) if j not in marginal]
    values = _parse_cells(rows, [(j, view.columns[j][1]) for j in dims], args.missing_token)
    logps = view.evaluate(dims, values)
    for i, lp in enumerate(logps):
        print(f"{i},{_fmt(lp)}")
    print(f"mean,{_fmt(np.mean(logps))}")
    return EXIT_OK


# -- inspect ------------------------------------------------------------------------


def _cmd_inspect(args) -> int:
    view = _view(load_model(args.model))
    count = sum(p.size for p in view.params)
    for line in view.describe:
        print(line)
    print(f"parameters: {count}")
    print(f"memory: {8 * count} bytes ({8 * count / 2**20:.3g} MB)")
    return EXIT_OK


# -- verify -------------------------------------------------------------------------

_VERIFY_TOL = 1e-8


def _rel_close(log_p: float, reference: float) -> bool:
    """Whether ``log_p`` is the log of ``reference`` to relative tolerance."""
    log_ref = np.log(reference) if reference > 0 else -np.inf
    if log_p == -np.inf and log_ref == -np.inf:
        return True
    return abs(np.expm1(log_p - log_ref)) <= _VERIFY_TOL


def _verify_discrete(model) -> list[tuple[str, bool]]:
    dense, rng, ok = oracle.densify(model), np.random.default_rng(0), True
    counts = model.category_counts
    for _ in range(25):
        mask = {k: int(rng.integers(counts[k])) for k in range(model.d) if rng.random() < 0.6}
        ok &= _rel_close(model.log_marginal(mask), oracle.dense_marginal(dense, mask))
    sums = all(abs(sum(np.exp(model.log_marginal({k: v})) for v in range(c)) - 1.0) <= 1e-10
               for k, c in enumerate(counts))
    return [("marginals match enumeration", bool(ok)),
            ("single-variable marginals sum to 1", sums)]


def _verify_continuous(model) -> list[tuple[str, bool]]:
    _, means, stds = oracle.enumerate_modes(model)
    rng, dens, weights = np.random.default_rng(0), True, True
    # draw around the modes: away from them, tiny stds underflow the oracle's densities to 0
    modes = rng.integers(len(means), size=30)
    points = means[modes] + stds[modes] * rng.standard_normal((30, model.d))
    for point in points[:25]:
        z = {k: float(v) for k, v in enumerate(point) if rng.random() < 0.7}
        dens &= _rel_close(model.log_density(z), oracle.dense_density(model, z))
    for point in points[25:]:
        k = int(rng.integers(model.d))
        prefix = [float(v) for v in point[:k]]
        got = model.conditional_mixture_weights(k, prefix)
        want = oracle.dense_mixture_weights(model, k, dict(enumerate(prefix)))
        weights &= bool(np.allclose(got, want, rtol=_VERIFY_TOL, atol=1e-12))
        weights &= abs(got.sum() - 1.0) <= 1e-12
    return [("densities match mode enumeration", bool(dens)),
            ("conditional component weights match enumeration", bool(weights))]


def _verify_joint(model) -> list[tuple[str, bool]]:
    rng, sums, conditionals = np.random.default_rng(0), True, True
    cards = model.cardinalities
    for _ in range(10):
        z = {k: float(rng.normal()) for k in range(model.d) if rng.random() < 0.7}
        attrs = {i: int(rng.integers(cards[i])) for i in range(model.c) if rng.random() < 0.5}
        for i in range(model.c):
            rest = {j: v for j, v in attrs.items() if j != i}
            total = sum(np.exp(model.log_joint(z, {**rest, i: y})) for y in range(cards[i]))
            marg = np.exp(model.log_joint(z, rest))
            sums &= abs(total - marg) <= 1e-10 * max(marg, 1.0)
    for _ in range(5):
        z = rng.normal(size=model.d)
        for i in range(model.c):
            total = sum(np.exp(model.log_attr_given_z(z, {i: y})) for y in range(cards[i]))
            conditionals &= abs(total - 1.0) <= 1e-10
    checks = [("attribute sums match marginals", bool(sums)),
              ("attribute conditionals normalize", bool(conditionals))]
    if int(np.prod(model.trip.component_counts)) <= oracle.DENSE_CAP:
        checks += [(f"latent {name}", passed) for name, passed in _verify_continuous(model.trip)]
    return checks


def _cmd_verify(args) -> int:
    view = _view(load_model(args.model))
    try:
        checks = view.checks()
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
    p.add_argument("--missing-token", default="?", help="cell marking a missing categorical value")
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
    except TripError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
