"""The files the five commands write under --out-dir, byte for byte; the
encoding of every file the CLI reads and writes; and which modules touch files."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridflex
from gridflex.cli import _read_similarity, _write_similarity, main
from gridflex.community import load_community, save_community
from gridflex.errors import GridflexError, InvalidSpecError, ValidationError
from tests.conftest import community_of, household

TINY_COMMUNITY = {"counties": 1, "households_per_neighborhood": 8, "days": 8}
TINY_SCENARIO = {"cycle_days": 8, "emergency_day_count": 2, "default_incentive": 3.0}
POPULATION = ["--households-csv", "generate/households.csv",
              "--loads-csv", "generate/loads.csv"]


def _write_json(path: Path, value) -> str:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(value))
    return str(path)


def run_every_command() -> None:
    """The five commands at tiny sizes, from the working directory, with paths
    relative to it: the manifests record the arguments, paths included. The
    noise study runs through `sweep`."""
    assert main(["generate", "--counties", "1", "--households", "8", "--days", "6",
                 "--out-dir", "generate"]) == 0
    assert main(["train", *POPULATION, "--epochs", "2", "--hidden", "4", "--heads", "2",
                 "--stride", "12", "--out-dir", "train"]) == 0
    assert main(["select", *POPULATION, "--days", "6", "--incentive", "3",
                 "--similarity-csv", "train/similarity.csv", "--out-dir", "select"]) == 0
    for name, spec in {"incentive": {"values": [1.0, 3.0, 9.0], "repetitions": 2},
                       "participation_pct": {"values": [10.0, 50.0],
                                             "outputs": "rate_hike.csv"}}.items():
        path = _write_json(Path("inputs") / f"{name}.json",
                           {"variable": name, **spec, "community": TINY_COMMUNITY,
                            "scenario": TINY_SCENARIO})
        assert main(["sweep", "--spec", path, "--out-dir", f"sweep-{name}"]) == 0
    noise = _write_json(Path("inputs/noise.json"), {
        "variable": "noise_level", "values": [0.0, 50.0], "repetitions": 2,
        "outputs": "noise.csv"})
    assert main(["sweep", "--spec", noise, "--out-dir", "noise"]) == 0
    config = _write_json(Path("inputs/config.json"), {
        "scenario": {"cycle_days": 8, "emergency_day_count": 2, "rng_seed": 3},
        "community": TINY_COMMUNITY, "hyper": {"epochs": 2, "batch_size": 4},
        "hidden_size": 4, "head_count": 2, "stride": 12})
    assert main(["run", "--config", config, "--out-dir", "run"]) == 0


def output_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under `root` but the inputs, by its path relative to `root`."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.parts[len(root.parts)] != "inputs"}


# sha256 of the 18 files run_every_command writes, as the writers spread over
# cli, harness and selector wrote them.
OUTPUT_DIGESTS = {
    "generate/households.csv": "35bb198d6e3a45d247e22f0e15a8f9e2c70e0d9e4a12fa61692578c73e4c1037",
    "generate/loads.csv": "2fc0dc2e4b4aa9b41f19bcee12daf29d550b80045cd66f43ebadc4f46065ba87",
    "generate/manifest.json": "d76cd63cce3bc59d0c51020f6391c5e826cde07b9b20f7658f05cb8741122ea2",
    "noise/manifest.json": "e12983208edc8f08c398b23d65aa619040e0f757ed0157ae9dff7f82b11fbd58",
    "noise/noise.csv": "eb1c69c1047659561f999f6c5e152abcf0f36c7cf33c25d88985d099a9a5f43b",
    "run/manifest.json": "eb86231631cbcc9be7fc2c70345433e2c1915a08568839d952fc081608c2f9e6",
    "run/offers.csv": "9a3b090628795d28eee3f70cd4311948e59c1e70962a9669bcbd16db99937d43",
    "run/report.json": "6067dc586e9c325b5ffed8f5d1734a05f67a71af1b286299ea07af463752c858",
    "run/similarity.csv": "09be3c4d50ebd5bd7811221809af45fc0fe5a8feb4e6a5875439661ba0f90824",
    "select/manifest.json": "ccbefe54aa576172a820932f9fe44e3f9ab7395b9c0f7939dc305b47064ce56a",
    "select/selection.csv": "91f699d17854c752f24aa28d940acceb794406a393805358b973459ecce017e3",
    "sweep-incentive/manifest.json": "46cf0e4f7edfbdab7b3ab01e2d12c56df174096df5eee17e0ce447c9e1ff510c",
    "sweep-incentive/sweep.csv": "a2c60df61fd3ec483359d7dc88c68479a4037661a2ae557650f0b8c63315af03",
    "sweep-participation_pct/manifest.json":
        "d3783b2e43c0f42d8c2197af1a9f0e36f43dd2ca512973e2d497bec715704a17",
    "sweep-participation_pct/rate_hike.csv":
        "c7092d6a6705ee5061eacff5ebec9c630c671b2c0ff629982bff6b1410295a8c",
    "train/loss_history.csv": "c5676c5e3c42f885d879aedb33081303d0c14c2562246abcfd6bcb5be8b6b501",
    "train/manifest.json": "8d1c996a54c9b82d602950b8501ccbadf680e79c96e55ebe460217333d0b63ff",
    "train/similarity.csv": "ea44e1c2be49b59a51f5822fea63c7dae1460b2c81d79c44ff02d2601bcf1783",
}


def test_every_command_writes_the_pinned_bytes(tmp_path, monkeypatch):
    """A change to how the CLI writes its files must leave every one of them,
    the manifests included, byte for byte as it was."""
    monkeypatch.chdir(tmp_path)
    run_every_command()
    assert output_digests(tmp_path) == OUTPUT_DIGESTS


def _non_ascii_population(directory: Path) -> None:
    """households.csv and loads.csv of 8 households over 6 days whose ids and
    neighborhood ids hold non-ASCII letters."""
    rng = np.random.default_rng(5)
    names = ("Zoë", "Łódź", "東京", "Ünal", "façade", "Straße", "naïve", "Åsa")
    community = community_of([
        household(f"{name}-{i}", elasticity=-0.5 if i % 2 else -0.05,
                  neighborhood_id=f"nörd-{i % 2}", load=rng.uniform(0.2, 3.0, 6 * 24))
        for i, name in enumerate(names)])
    directory.mkdir()
    save_community(community, directory / "households.csv", directory / "loads.csv")


@pytest.mark.parametrize("rate", ["inf", "nan", "0"])
def test_generate_rejects_a_rate_that_is_not_finite_and_writes_nothing(tmp_path, rate):
    """households.csv holding such a rate is a file load_community rejects."""
    with pytest.raises(InvalidSpecError, match="baseline_rate must be finite and > 0"):
        main(["generate", "--counties", "1", "--households", "2", "--days", "1",
              "--baseline-rate", rate, "--out-dir", str(tmp_path / "out")])
    assert list((tmp_path / "out").iterdir()) == []


def test_train_and_select_write_utf8_under_an_ascii_locale(tmp_path):
    """Under the C locale, where open() would encode as ASCII, train and select
    read and write the same bytes as under the default environment."""
    src = str(Path(gridflex.__file__).resolve().parents[1])
    population = ["--households-csv", "households.csv", "--loads-csv", "loads.csv"]
    commands = [
        ["train", *population, "--epochs", "2", "--hidden", "4", "--heads", "2",
         "--stride", "12", "--out-dir", "train"],
        ["select", *population, "--similarity-csv", "train/similarity.csv", "--days", "6",
         "--incentive", "3", "--out-dir", "select"],
    ]
    default = {**os.environ, "PYTHONPATH": src}
    ascii_locale = {**default, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    written = []
    for name, env in (("default", default), ("c-locale", ascii_locale)):
        directory = tmp_path / name
        _non_ascii_population(directory)
        for argv in commands:
            run = subprocess.run([sys.executable, "-m", "gridflex.cli", *argv], cwd=directory,
                                 env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
        written.append(output_digests(directory))
    assert "Zoë-0".encode() in (tmp_path / "default/train/similarity.csv").read_bytes()
    assert "Zoë-0".encode() in (tmp_path / "default/select/selection.csv").read_bytes()
    assert len(written[0]) == 7
    assert written[1] == written[0]


@pytest.mark.parametrize("outputs", ["../escaped.csv", "sub/sweep.csv", "sub\\sweep.csv",
                                     "ABSOLUTE", "", ".", "..", "manifest.json"])
def test_sweep_outputs_must_be_a_plain_file_name(tmp_path, outputs):
    """A sweep writes its table only under --out-dir, and never over the manifest."""
    outputs = str(tmp_path / "absolute.csv") if outputs == "ABSOLUTE" else outputs
    spec = _write_json(tmp_path / "inputs" / "spec.json", {
        "variable": "incentive", "values": [1.0], "outputs": outputs,
        "community": TINY_COMMUNITY, "scenario": TINY_SCENARIO})
    with pytest.raises(InvalidSpecError, match="outputs must be a plain file name"):
        main(["sweep", "--spec", spec, "--out-dir", str(tmp_path / "out")])
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "inputs", "inputs/spec.json", "out"]


SEEDED = ["generate", "train", "train from CSV", "select", "select from CSV", "run", "sweep"]


@pytest.mark.parametrize("command", SEEDED)
def test_every_command_that_takes_a_seed_rejects_a_negative_one(tmp_path, monkeypatch, command):
    """Before any draw, and also where the community is read from CSV files."""
    monkeypatch.chdir(tmp_path)
    size = ["--counties", "1", "--households", "4", "--days", "3"]
    assert main(["generate", *size, "--out-dir", "generate"]) == 0
    _write_similarity(Path("similarity.csv"), tuple(f"c00-n00-h{i:03d}" for i in range(4)),
                      np.full((4, 4), 0.25))
    sections = {"community": {"counties": 1, "households_per_neighborhood": 4, "days": 3},
                "scenario": {"cycle_days": 3, "emergency_day_count": 2, "rng_seed": -1}}
    table = {
        "generate": ["generate", *size, "--seed", "-1"],
        "train": ["train", *size, "--seed", "-1"],
        "train from CSV": ["train", *POPULATION, "--seed", "-1"],
        "select": ["select", *size, "--similarity-csv", "similarity.csv", "--seed", "-1"],
        "select from CSV": ["select", *POPULATION, "--similarity-csv", "similarity.csv",
                            "--days", "3", "--seed", "-1"],
        "run": ["run", "--config", _write_json(Path("inputs/config.json"), sections)],
        "sweep": ["sweep", "--spec", _write_json(Path("inputs/spec.json"), {
            "variable": "incentive", "values": [1.0], **sections})],
    }
    assert list(table) == SEEDED
    with pytest.raises(InvalidSpecError, match="seed must be >= 0, got -1"):
        main([*table[command], "--out-dir", "out"])
    assert list(Path("out").iterdir()) == []


SPEC = '{"variable": "incentive",\n "values": [1.0],\n "outputs": "café.csv"}\n'
SELECT = ["select", "--households-csv", "households.csv", "--loads-csv", "loads.csv",
          "--similarity-csv", "similarity.csv", "--days", "1"]


@pytest.mark.parametrize(("name", "argv", "error"), [
    ("households.csv", SELECT, ValidationError),
    ("loads.csv", SELECT, ValidationError),
    ("similarity.csv", SELECT, ValidationError),
    ("config.json", ["run", "--config", "config.json"], InvalidSpecError),
    ("spec.json", ["sweep", "--spec", "spec.json"], InvalidSpecError),
])
def test_input_that_is_not_utf8_names_the_file_and_line(tmp_path, monkeypatch, name, argv,
                                                        error):
    """A 0xff byte in place of each "é" raises the package's error naming the
    file and the line, not a bare UnicodeDecodeError."""
    monkeypatch.chdir(tmp_path)
    community = community_of([household(hid, days=1) for hid in ("a", "é", "b")])
    save_community(community, "households.csv", "loads.csv")
    _write_similarity(Path("similarity.csv"), community.ids, np.full((3, 3), 1 / 3))
    Path("config.json").write_text(SPEC, encoding="utf-8")
    Path("spec.json").write_text(SPEC, encoding="utf-8")
    data = Path(name).read_bytes().replace("é".encode(), b"\xff")
    Path(name).write_bytes(data)
    line = data[:data.index(b"\xff")].count(b"\n") + 1
    with pytest.raises(error, match=re.escape(f"{name} line {line}: byte 0xff is not UTF-8")):
        main([*argv, "--out-dir", "out"])


def _drop_last_field(lines: list[str], k: int) -> None:
    lines[k] = lines[k].rstrip("\r\n").rsplit(",", 1)[0] + "\r\n"


def _quote_across_lines(lines: list[str], k: int) -> None:
    first, rest = lines[k].split(",", 1)
    lines[k] = f'"{first}\n{first}",{rest}'


# Each fault, as an edit of a file's lines, and the message each reader gives
# for it. Row 3 is the second record, the household "é" in households.csv.
CSV_FAULTS = {
    "missing column": (lambda lines: _drop_last_field(lines, 0), {
        "households.csv": "households.csv: missing column(s) dwelling_size",
        "loads.csv": "loads.csv: missing column(s) kwh",
        "similarity.csv": "similarity.csv row 2: 3 fields, the header has 2"}),
    "ragged row": (lambda lines: _drop_last_field(lines, 2), {
        "households.csv": "households.csv row 3: 11 fields, the header has 12",
        "loads.csv": "loads.csv row 3: 2 fields, the header has 3",
        "similarity.csv": "similarity.csv row 3: 2 fields, the header has 3"}),
    "quoted field spanning lines": (lambda lines: _quote_across_lines(lines, 2), {
        name: f"{name} row 3: a quoted field runs past the end of its line"
        for name in ("households.csv", "loads.csv", "similarity.csv")}),
    "non-UTF-8 byte": (None, {
        "households.csv": "households.csv line 3: byte 0xff is not UTF-8",
        "loads.csv": "loads.csv line 26: byte 0xff is not UTF-8",
        "similarity.csv": "similarity.csv line 1: byte 0xff is not UTF-8"}),
    "blank lines between rows": (lambda lines: lines.insert(2, "\r\n\n\r"), None),
}


@pytest.mark.parametrize("name", ["households.csv", "loads.csv", "similarity.csv"])
@pytest.mark.parametrize("fault", list(CSV_FAULTS))
def test_the_three_csv_files_meet_a_fault_by_one_rule_set(tmp_path, fault, name):
    """One line per record, blank lines skipped, columns by header name: the
    same fault gets the same treatment in each file, named by file and row."""
    community = community_of([household(hid, days=1) for hid in ("a", "é", "b")])
    save_community(community, tmp_path / "households.csv", tmp_path / "loads.csv")
    _write_similarity(tmp_path / "similarity.csv", community.ids, np.full((3, 3), 1 / 3))

    def read():
        if name == "similarity.csv":
            return _read_similarity(tmp_path / name, community.ids)
        return load_community(tmp_path / "households.csv", tmp_path / "loads.csv")

    clean = read()
    edit, messages = CSV_FAULTS[fault]
    data = (tmp_path / name).read_bytes()
    if edit is None:
        data = data.replace("é".encode(), b"\xff")
    else:
        lines = data.decode().splitlines(keepends=True)
        edit(lines)
        data = "".join(lines).encode()
    (tmp_path / name).write_bytes(data)
    if messages is None:
        restored = read()
        if name == "similarity.csv":
            assert restored.tobytes() == clean.tobytes()
        else:
            assert restored.ids == clean.ids
            assert restored.loads.tobytes() == clean.loads.tobytes()
            assert restored.profiles.tobytes() == clean.profiles.tobytes()
        return
    with pytest.raises(GridflexError, match=f"^{re.escape(messages[name])}$"):
        read()


# Only these modules may read or write files; the rest compute and return values.
FILE_MODULES = {"cli.py", "community.py"}
FILE_IMPORTS = {"csv", "hashlib", "json"}
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_io(source: str) -> list[str]:
    """The imports of FILE_IMPORTS and the calls of FILE_CALLS in Python `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            modules = []
        found += [f"import {m}" for m in modules if m.split(".")[0] in FILE_IMPORTS]
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called in FILE_CALLS:
                found.append(f"{called}() on line {node.lineno}")
    return found


def test_file_io_finds_each_import_and_call():
    source = ("import csv\nimport json.decoder\nfrom hashlib import sha256\n"
              "from .errors import ValidationError\nopen('x')\np.open()\n"
              "p.read_text()\np.write_text('')\np.read_bytes()\np.write_bytes(b'')\n")
    assert file_io(source) == [
        "import csv", "import json.decoder", "import hashlib", "open() on line 5",
        "open() on line 6", "read_text() on line 7", "write_text() on line 8",
        "read_bytes() on line 9", "write_bytes() on line 10"]


@pytest.mark.parametrize("module", sorted(
    path.name for path in Path(gridflex.__file__).parent.glob("*.py")
    if path.name not in FILE_MODULES))
def test_only_cli_and_community_touch_files(module):
    source = (Path(gridflex.__file__).parent / module).read_text(encoding="utf-8")
    assert file_io(source) == []
