"""Command-line behavior: exit codes, formats, determinism."""

import json

import numpy as np
import pytest
from conftest import four_mode_data, random_core_set, random_joint_model, random_trip_model
from hypothesis import HealthCheck, given, settings, strategies as st

import trip
from trip.cli import build_parser, main
from trip.modelfile import load_model, save_model


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cont_model_path(tmp_path):
    rng = np.random.default_rng(0)
    model = random_trip_model(rng, [2, 2], mean_scale=1.0)
    path = tmp_path / "cont.json"
    save_model(model, path)
    return path


@pytest.fixture
def tiny_std_model_path(tmp_path):
    # stds as small as `trip fit` gives a column of zeros: densities away
    # from the modes underflow to zero
    rng = np.random.default_rng(3)
    model = trip.TripModel(random_core_set(rng, [2, 2]), [np.zeros(2), np.array([0.0, 1e-5])],
                           [np.full(2, 1e-6), np.full(2, 2e-6)])
    path = tmp_path / "tiny.json"
    save_model(model, path)
    return path


@pytest.fixture
def discrete_model_path(tmp_path):
    rng = np.random.default_rng(1)
    cs = random_core_set(rng, [3, 2, 3])
    path = tmp_path / "disc.json"
    save_model(cs, path)
    return path


class TestFit:
    def test_fit_writes_model_and_epoch_lines(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        data = four_mode_data(800, [[0.4, 0.1], [0.1, 0.4]], rng)
        src = tmp_path / "data.csv"
        write_csv(src, [[repr(float(a)), repr(float(b))] for a, b in data])
        out = tmp_path / "model.json"
        code, stdout, _ = run(
            capsys, "fit", "--data", str(src), "--components", "2", "--core-size", "2",
            "--epochs", "5", "--batch-size", "256", "--lr", "0.01", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 5
        epochs = [int(line.split(",")[0]) for line in lines]
        assert epochs == [0, 1, 2, 3, 4]
        nlls = [float(line.split(",")[1]) for line in lines]
        assert all(np.isfinite(v) for v in nlls)
        assert isinstance(load_model(out), trip.TripModel)

    def test_empty_csv(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("")
        code, _, err = run(
            capsys, "fit", "--data", str(src), "--components", "1", "--core-size", "1",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "no data rows" in err

    def test_malformed_row_names_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("0.1,0.2\n0.3,oops\n0.5,0.6\n")
        code, _, err = run(
            capsys, "fit", "--data", str(src), "--components", "1", "--core-size", "1",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "line 2" in err

    def test_nan_rejected(self, tmp_path, capsys):
        src = tmp_path / "nan.csv"
        src.write_text("0.1,0.2\n0.3,nan\n")
        code, _, err = run(
            capsys, "fit", "--data", str(src), "--components", "1", "--core-size", "1",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "line 2" in err

    def test_dims_mismatch_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("0.1,0.2\n")
        code, _, err = run(
            capsys, "fit", "--data", str(src), "--dims", "3", "--components", "1",
            "--core-size", "1", "--out", str(tmp_path / "m.json"),
        )
        assert code == 1

    def test_all_missing_attribute_column_equals_plain_fit(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(300, 2))
        with_attr = tmp_path / "attr.csv"
        write_csv(with_attr, [[repr(float(a)), repr(float(b)), "?"] for a, b in data])
        plain = tmp_path / "plain.csv"
        write_csv(plain, [[repr(float(a)), repr(float(b))] for a, b in data])
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["--components", "2", "--core-size", "2", "--epochs", "3",
                "--lr", "0.01", "--seed", "5"]
        code_a, stdout_a, err = run(
            capsys, "fit", "--data", str(with_attr), "--attr-cols", "2",
            "--out", str(out_a), *base,
        )
        assert code_a == 0
        assert "dropping all-missing attribute" in err
        code_b, stdout_b, _ = run(
            capsys, "fit", "--data", str(plain), "--out", str(out_b), *base,
        )
        assert code_b == 0
        assert stdout_a == stdout_b
        assert isinstance(load_model(out_a), trip.TripModel)
        a, b = load_model(out_a), load_model(out_b)
        for x, y in zip(a.cores.cores, b.cores.cores):
            np.testing.assert_array_equal(x, y)

    def test_cli_fit_matches_library_fit(self, tmp_path, capsys):
        # same flags, same seed: the command line produces the same model as
        # fit_mle, so its logprob means are the library's numbers
        rng = np.random.default_rng(9)
        data = four_mode_data(1000, [[0.4, 0.1], [0.1, 0.4]], rng)
        src = tmp_path / "bench.csv"
        write_csv(src, [[repr(float(a)), repr(float(b))] for a, b in data])
        out = tmp_path / "bench.json"
        code, _, _ = run(
            capsys, "fit", "--data", str(src), "--components", "2", "--core-size", "2",
            "--epochs", "8", "--batch-size", "256", "--lr", "0.01", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        cfg = trip.FitConfig(learning_rate=0.01, epochs=8, batch_size=256, seed=3)
        direct = trip.fit_mle(data, 2, 2, cfg)
        loaded = load_model(out)
        for a, b in zip(direct.cores.cores, loaded.cores.cores):
            np.testing.assert_array_equal(a, b)
        code, out_text, _ = run(
            capsys, "logprob", "--model", str(out), "--data", str(src)
        )
        assert code == 0
        mean = float(out_text.strip().splitlines()[-1].split(",")[1])
        want = float(np.mean(direct.log_densities([0, 1], data)))
        assert mean == pytest.approx(want, abs=1e-12)

    def test_joint_fit_with_partial_labels(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(400, 2))
        labels = (data[:, 0] > 0).astype(int).astype(object)
        labels[rng.random(400) < 0.5] = "?"
        src = tmp_path / "joint.csv"
        write_csv(src, [[repr(float(a)), repr(float(b)), y]
                        for (a, b), y in zip(data, labels)])
        out = tmp_path / "joint.json"
        code, _, _ = run(
            capsys, "fit", "--data", str(src), "--attr-cols", "2", "--components", "2",
            "--core-size", "2", "--epochs", "3", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        model = load_model(out)
        assert isinstance(model, trip.JointModel)
        assert model.cardinalities == (2,)


class TestSample:
    def test_continuous_deterministic_bytes(self, cont_model_path, capsys):
        args = ["sample", "--model", str(cont_model_path), "-n", "8", "--seed", "3"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 8

    def test_discrete_sampling_and_given(self, discrete_model_path, capsys):
        code, out, _ = run(
            capsys, "sample", "--model", str(discrete_model_path), "-n", "6",
            "--seed", "1", "--given", "1=1",
        )
        assert code == 0
        rows = [list(map(int, line.split(","))) for line in out.strip().splitlines()]
        assert all(row[1] == 1 for row in rows)

    def test_unknown_attribute_name(self, cont_model_path, tmp_path, capsys):
        rng = np.random.default_rng(5)
        jm = trip.JointModel(
            load_model(cont_model_path), [rng.standard_normal((2, 2, 2))], [0, 1, 2],
            attribute_names=["hat"],
        )
        path = tmp_path / "joint.json"
        save_model(jm, path)
        code, _, err = run(
            capsys, "sample", "--model", str(path), "-n", "1", "--seed", "0",
            "--given", "shoes=1",
        )
        assert code == 1 and "unknown attribute" in err
        code, _, err = run(
            capsys, "sample", "--model", str(path), "-n", "1", "--seed", "0",
            "--given", "hat=9",
        )
        assert code == 1 and "out of range" in err
        code, out, _ = run(
            capsys, "sample", "--model", str(path), "-n", "2", "--seed", "0",
            "--given", "hat=1",
        )
        assert code == 0 and len(out.strip().splitlines()) == 2

    def test_mode_hopping_trajectory(self, cont_model_path, capsys):
        code, out, _ = run(
            capsys, "sample", "--model", str(cont_model_path), "-n", "4", "--seed", "2",
            "--resample-dims", "1", "--from", "0.5,0.5",
        )
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.strip().splitlines()]
        assert all(row[0] == 0.5 for row in rows)
        assert len({row[1] for row in rows}) == 4

    def test_resample_needs_from(self, cont_model_path, capsys):
        code, _, err = run(
            capsys, "sample", "--model", str(cont_model_path), "-n", "1", "--seed", "0",
            "--resample-dims", "0",
        )
        assert code == 1
        assert "--from" in err

    def test_seed_is_required(self, cont_model_path, capsys):
        code, _, _ = run(capsys, "sample", "--model", str(cont_model_path), "-n", "1")
        assert code == 1


class TestLogprob:
    def test_mean_matches_rows(self, cont_model_path, tmp_path, capsys):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(40, 2))
        src = tmp_path / "pts.csv"
        write_csv(src, [[repr(float(a)), repr(float(b))] for a, b in data])
        code, out, _ = run(
            capsys, "logprob", "--model", str(cont_model_path), "--data", str(src)
        )
        assert code == 0
        lines = out.strip().splitlines()
        rows = [float(line.split(",")[1]) for line in lines[:-1]]
        tag, mean = lines[-1].split(",")
        assert tag == "mean"
        assert float(mean) == pytest.approx(np.mean(rows), abs=1e-12)
        model = load_model(cont_model_path)
        np.testing.assert_allclose(
            rows, model.log_densities([0, 1], data), rtol=1e-12
        )

    def test_marginal_dims(self, cont_model_path, tmp_path, capsys):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(10, 2))
        src = tmp_path / "pts.csv"
        write_csv(src, [[repr(float(a)), repr(float(b))] for a, b in data])
        code, out, _ = run(
            capsys, "logprob", "--model", str(cont_model_path), "--data", str(src),
            "--marginal-dims", "1",
        )
        assert code == 0
        model = load_model(cont_model_path)
        rows = [float(line.split(",")[1]) for line in out.strip().splitlines()[:-1]]
        np.testing.assert_allclose(
            rows, model.log_densities([0], data[:, :1]), rtol=1e-12
        )

    def test_discrete_out_of_range_value(self, discrete_model_path, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        src.write_text("0,1,2\n0,9,0\n")
        code, _, err = run(
            capsys, "logprob", "--model", str(discrete_model_path), "--data", str(src)
        )
        assert code == 2
        assert "line 2" in err

    def test_discrete_missing_cell_sums_the_variable_out(
        self, discrete_model_path, tmp_path, capsys
    ):
        src = tmp_path / "pts.csv"
        src.write_text("0,1,2\n?,1,2\n0,?,?\n1,0,1\n")
        code, out, _ = run(
            capsys, "logprob", "--model", str(discrete_model_path), "--data", str(src)
        )
        assert code == 0
        model = load_model(discrete_model_path)
        rows = [float(line.split(",")[1]) for line in out.strip().splitlines()[:-1]]
        masks = [{0: 0, 1: 1, 2: 2}, {1: 1, 2: 2}, {0: 0}, {0: 1, 1: 0, 2: 1}]
        np.testing.assert_allclose(rows, [model.log_marginal(m) for m in masks], rtol=1e-12)


class TestInspectAndVerify:
    def test_inspect_reports_reference_memory_row(self, tmp_path, capsys):
        model = trip.TripModel(
            [np.ones((10, 10, 10))] * 100,
            [np.zeros(10)] * 100,
            [np.ones(10)] * 100,
        )
        path = tmp_path / "big.json"
        save_model(model, path)
        code, out, _ = run(capsys, "inspect", "--model", str(path))
        assert code == 0
        assert "parameters: 102000" in out
        assert "0.778 MB" in out

    def test_verify_small_models_pass(self, cont_model_path, discrete_model_path,
                                      tiny_std_model_path, capsys):
        for path in (cont_model_path, discrete_model_path, tiny_std_model_path):
            code, out, _ = run(capsys, "verify", "--model", str(path))
            assert code == 0
            assert "FAIL" not in out

    def test_verify_oversized_refuses(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        cs = trip.CoreSet([np.abs(rng.standard_normal((32, 1, 1))) for _ in range(5)])
        path = tmp_path / "big.json"
        save_model(cs, path)
        code, _, err = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert "refusing" in err

    def test_verify_corrupted_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        doc = {
            "format": "trip-v1",
            "kind": "discrete",
            "cores": [{"shape": [2, 1, 1], "values": [1.0]}],
        }
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert "payload length" in err

    def test_usage_error_on_unknown_command(self, capsys):
        code, _, _ = run(capsys, "trampoline")
        assert code == 1


FIT = ["fit", "--data", "{data}", "--components", "2", "--core-size", "2", "--out", "{out}"]
RESAMPLE = ["sample", "--model", "{cont3}", "-n", "2", "--seed", "0"]
FIT_ATTR = ["fit", "--data", "{joint_rows}", "--attr-cols", "2", "--components", "1",
            "--core-size", "1", "--out", "{out}"]


@pytest.mark.parametrize(
    "argv,code,prefix",
    [
        (["sample", "--model", "{cont3}", "-n", "-3", "--seed", "0"], 1, "usage error:"),
        (FIT + ["--components", "0"], 1, "usage error:"),
        (FIT + ["--core-size", "0"], 1, "usage error:"),
        (FIT + ["--epochs", "0"], 1, "usage error:"),
        (FIT + ["--batch-size", "0"], 1, "usage error:"),
        (FIT + ["--lr", "-1"], 1, "usage error:"),
        (FIT + ["--reinit-period", "-1"], 1, "usage error:"),
        (RESAMPLE + ["--resample-dims", "-1", "--from", "1,2,3"], 1, "usage error:"),
        (RESAMPLE + ["--resample-dims", "7", "--from", "1,2,3"], 1, "usage error:"),
        (RESAMPLE + ["--resample-dims", "0", "--from", "a,b,c"], 1, "usage error:"),
        (RESAMPLE + ["--resample-dims", "0", "--from", "1,2,inf"], 1, "usage error:"),
        (["logprob", "--model", "{joint}", "--data", "{joint_rows}"], 2, "data error: line 2:"),
        (FIT + ["--out", "{out}/no/such/dir/m.json"], 1, "usage error:"),
        (FIT + ["--out", "{outdir}"], 1, "usage error:"),
        (["logprob", "--model", "{joint}", "--data", "{huge_attr}"], 2, "data error: line 2:"),
        (FIT_ATTR + ["--data", "{huge_attr}"], 2, "data error: line 2:"),
        (FIT_ATTR + ["--data", "{huge_card}"], 2, "data error: line 2:"),
        (["fit", "--data", "{over_cap}", "--attr-cols", "1", "--components", "1", "--core-size",
          "1", "--epochs", "1", "--out", "{out}"], 2,
         "data error: line 2: value 70000 out of range 0..65535"),
        # 71 PiB is past any address space, so no host can map it, overcommit or not
        (FIT + ["--components", "1", "--core-size", "100000000"], 2,
         "data error: a model with 1 components, core size 100000000 "),
        (["logprob", "--model", "{joint}", "--data", "{latin1}"], 2, "data error:"),
        (FIT + ["--data", "{latin1}"], 2, "data error:"),
        (["inspect", "--model", "{latin1}"], 2, "model error:"),
        (["sample", "--model", "{cont3}", "-n", "2", "--seed", "-1"], 1, "usage error:"),
        # flag values are cells: an empty or non-integer --given value, a repeated
        # index, a non-finite real and a non-integer index in a list
        (["sample", "--model", "{joint}", "-n", "2", "--seed", "0", "--given", "attr0="], 1,
         "usage error:"),
        (["sample", "--model", "{joint}", "-n", "2", "--seed", "0", "--given", "attr0=x"], 1,
         "usage error:"),
        (RESAMPLE + ["--resample-dims", "0,0", "--from", "1,2,3"], 1, "usage error:"),
        (RESAMPLE + ["--resample-dims", "0", "--from", "1,nan,2"], 1, "usage error:"),
        (["logprob", "--model", "{cont3}", "--data", "{data}", "--marginal-dims", "1,x"], 1,
         "usage error:"),
        # fit reads every cell of a row in one pass, so line 1's bad attribute
        # is reported before line 2's bad latent
        (["fit", "--data", "{bad_rows}", "--attr-cols", "2", "--components", "1",
          "--core-size", "1", "--out", "{out}"], 2, "data error: line 1:"),
    ],
    ids=[
        "sample-n", "fit-components", "fit-core-size", "fit-epochs", "fit-batch-size", "fit-lr",
        "fit-reinit-period", "resample-negative", "resample-past-d", "from-text", "from-inf",
        "logprob-attribute-past-cardinality", "fit-out-missing-directory", "fit-out-directory",
        "logprob-attribute-past-int64", "fit-attribute-past-int64", "fit-attribute-7-pib",
        "fit-attribute-over-cap", "fit-core-size-71-pib",
        "logprob-not-utf8", "fit-not-utf8", "inspect-not-utf8", "sample-seed-negative",
        "given-empty-value", "given-not-integer", "resample-repeated", "from-nan",
        "marginal-not-integer", "fit-first-bad-line",
    ],
)
def test_bad_input_ends_in_exit_code(argv, code, prefix, tmp_path, capsys):
    rng = np.random.default_rng(12)
    names = ("cont3", "joint", "data", "joint_rows", "huge_attr", "huge_card", "over_cap", "latin1",
             "bad_rows", "outdir", "out")
    paths = {name: str(tmp_path / name) for name in names}
    (tmp_path / "outdir").mkdir()
    save_model(random_trip_model(rng, [2, 2, 2]), paths["cont3"])
    save_model(random_joint_model(rng, [2, 2], [2]), paths["joint"])
    write_csv(tmp_path / "data", rng.normal(size=(20, 3)).tolist())
    write_csv(tmp_path / "joint_rows", [[0.1, 0.2, 1], [0.3, 0.4, 5]])
    write_csv(tmp_path / "huge_attr", [[0.1, 0.2, 1], [0.3, 0.4, "99999999999999999999"]])
    # a cardinality of 1e15 would ask for a 7 PiB core; the category cap refuses its cell
    write_csv(tmp_path / "huge_card", [[0.1, 0.2, 1], [0.3, 0.4, 1000000000000000]])
    write_csv(tmp_path / "over_cap", [[0.1, 1], [0.3, 70000]])
    write_csv(tmp_path / "bad_rows", [[0.1, 0.2, 70000], [0.3, "x", 1], [0.5, 0.6, 0]])
    (tmp_path / "latin1").write_bytes("0.5,0.25,caf\u00e9\n".encode("latin-1"))
    got, _, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert got == code
    assert err.startswith(prefix)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# cell and flag values that probe the parsers: signs, zero, past int64, the
# missing token, non-finite floats, empty and non-numeric text
FUZZ_CELLS = ["-1", "0", "1", "2", "0.5", "-0.25", "99999999999999999999", "?", "nan", "inf",
              "", "x"]
FUZZ_VALUES = FUZZ_CELLS + ["0,1", "1,0", "0,0", "=", ",", "attr0=1,attr0=0"]
# plausible values, drawn three times as often as the ones above, so that runs
# get past the flag checks into parsing, evaluation, sampling and fitting; flags
# that size an allocation (rows, epochs, components, core size) stay at most 2
FUZZ_PLAUSIBLE = {"lr": ["0.01"], "start": ["0.5,0.5"], "given": ["1=0", "attr0=1"],
                  "attr_cols": ["1", "2"], "marginal_dims": ["0", "1"],
                  "resample_dims": ["0", "1"], "missing_token": ["?"]}
FUZZ_CSV_POOLS = [["0", "1"], ["0", "1", "0.5", "?"], FUZZ_CELLS]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(13)
    save_model(random_core_set(rng, [2, 3]), path / "discrete.json")
    save_model(random_trip_model(rng, [2, 2]), path / "continuous.json")
    save_model(random_joint_model(rng, [2, 2], [2]), path / "joint.json")
    (path / "latin1.csv").write_bytes("0.5,caf\u00e9\n".encode("latin-1"))
    return path


def _fuzz_value(dest, path):
    # "out.json" is where fit writes, so the other commands also read fitted models
    files = {"model": ["discrete.json", "continuous.json", "joint.json", "out.json"],
             "data": ["rows.csv"], "out": ["out.json"]}
    if dest in files:
        plausible = [str(path / f) for f in files[dest]]
        hostile = [str(path / "absent" / "f"), str(path), ""]
        hostile += [] if dest == "out" else [str(path / "latin1.csv")]
    elif dest in ("n", "epochs", "components", "core_size"):
        plausible, hostile = ["1", "2"], ["-1", "0"]
    else:
        plausible, hostile = FUZZ_PLAUSIBLE.get(dest, ["1", "2"]), FUZZ_VALUES
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(plausible if i else hostile))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_returns_an_exit_code_on_any_input(fuzz_dir, data):
    # every command with flags drawn from its own parser, on small models of all
    # three kinds and a small CSV: main ends in a documented exit code, never raises
    commands = build_parser()._subparsers._group_actions[0].choices
    command = data.draw(st.sampled_from(sorted(commands)))
    argv = [command]
    for action in commands[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if not action.required and not data.draw(st.booleans()):
            continue
        argv.append(action.option_strings[-1])
        if action.nargs != 0:
            argv.append(data.draw(_fuzz_value(action.dest, fuzz_dir)))
    cells = st.sampled_from(data.draw(st.sampled_from(FUZZ_CSV_POOLS)))
    width = data.draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    rows = data.draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                              min_size=1, max_size=4))
    write_csv(fuzz_dir / "rows.csv", rows)
    assert main(argv) in range(5)
