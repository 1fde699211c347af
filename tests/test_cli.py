"""End-to-end tests for the command-line pipeline."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from rpickle import cli
from rpickle.diagnostics import linear_oracle
from rpickle.errors import ConfigError, NumericalError
from rpickle.pickle_map import LossParams
from rpickle.rpickle_sampler import ensemble_from_csv

STAGES = ("generate", "build-prior", "map", "sample-rpickle", "sample-hmc", "diagnose")


def write_config(path, out_dir, **overrides):
    """Small flow config that runs every stage in a few seconds."""
    doc = {
        "mesh": {"nx": 6, "ny": 6, "bc": {"west": 1.0, "east": 0.0, "south": 0.0, "north": 0.0}},
        "kernel": {"sigma": 0.7, "length_scale": 0.5},
        "truncation": {"n_xi": 3, "n_eta": 3},
        "observations": {"n_y_obs": 8, "n_u_obs": 8},
        "mc_draws": 60,
        "sigma_r_sq": [0.05],
        "sampler": {"kind": "rpickle", "n_ens": 8},
        "base_seed": 3,
        "output_dir": str(out_dir),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key] = {**doc[key], **value}
        else:
            doc[key] = value
    path = str(path)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def tree_bytes(root):
    """All file contents under root keyed by relative path, wall times excluded."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name == "timing.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestConfigValidation:
    def test_missing_bc_side_named(self, tmp_path):
        path = write_config(tmp_path / "c.json", tmp_path / "out")
        with open(path) as fh:
            doc = json.load(fh)
        del doc["mesh"]["bc"]["north"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ConfigError, match="mesh.bc.north"):
            cli.load_run_config(path)

    def test_missing_bc_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", tmp_path / "out", mesh={"bc": {}})
        assert cli.main(["generate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "mesh.bc.west" in err and "mesh.bc.north" in err

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="config.colour"):
            cli.parse_run_config({"colour": 1, "linear_case": {}})
        with pytest.raises(ConfigError, match="sampler.n_end"):
            cli.parse_run_config({"linear_case": {}, "sampler": {"n_end": 5}})

    def test_truncation_exclusive(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", tmp_path / "out", truncation={"energy": 0.9, "n_xi": 3, "n_eta": 3}
        )
        with pytest.raises(ConfigError, match="not both"):
            cli.load_run_config(path)
        with pytest.raises(ConfigError, match="both truncation.n_xi and truncation.n_eta"):
            cli.parse_run_config({"linear_case": {}, "truncation": {"n_xi": 3}})
        with pytest.raises(ConfigError, match="energy"):
            cli.parse_run_config({"linear_case": {}, "truncation": {"energy": 1.2}})

    def test_kernel_required_without_fit(self):
        doc = {"mesh": {"bc": {s: 0.0 for s in cli.BC_SIDES}}, "kernel": {"sigma": 0.5}}
        with pytest.raises(ConfigError, match="kernel.length_scale"):
            cli.parse_run_config(doc)
        doc["kernel"] = {"fit": True}
        assert cli.parse_run_config(doc).kernel_sigma is None

    def test_sampler_and_grid_validation(self):
        base = {"linear_case": {}}
        with pytest.raises(ConfigError, match="sampler.kind"):
            cli.parse_run_config({**base, "sampler": {"kind": "gibbs"}})
        with pytest.raises(ConfigError, match="at least one"):
            cli.parse_run_config({**base, "sigma_r_sq": []})
        with pytest.raises(ConfigError, match="positive"):
            cli.parse_run_config({**base, "sigma_r_sq": [0.1, -0.1]})
        config = cli.parse_run_config({**base, "sigma_r_sq": 0.25})
        assert config.gammas == (0.25,)

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("kernel", "fit", "false"),
            ("kernel", "fit", 1),
            ("sampler", "metropolize", "false"),
            ("sampler", "metropolize", 0),
            ("sampler", "n_ens", 2.9),
            ("sampler", "n_ens", True),
            ("truncation", "n_xi", 3.7),
            ("mesh", "nx", "8"),
            ("mesh", "lx", True),
            ("mesh", "ly", "1.0"),
            ("mesh", "bc", {"west": True, "east": 0.0, "south": 0.0, "north": 0.0}),
            ("kernel", "sigma", float("inf")),
            ("kernel", "length_scale", "0.5"),
            ("truncation", "energy", float("nan")),
            ("sigma_r_sq", None, [True]),
            ("sigma_r_sq", None, "0.05"),
            ("mesh", None, 5),
            ("sampler", None, [1]),
            ("kernel", None, None),
        ],
    )
    def test_field_types_are_checked(self, tmp_path, capsys, section, field, value):
        # Before these checks, "false" read as true, 2.9 as 2 and [true] as 1.0;
        # a section that was not an object ended in a traceback or in a
        # complaint about unknown fields.  ``field`` None replaces the section.
        name = section if field is None else f"{section}.{field}"
        override = {section: value} if field is None else {section: {field: value}}
        path = write_config(tmp_path / "c.json", tmp_path / "out", **override)
        with pytest.raises(ConfigError, match=rf"{re.escape(name)}(\.\w+)? must be"):
            cli.load_run_config(path)
        assert cli.main(["map", "--config", path]) == 1
        assert name in capsys.readouterr().err

    def test_valid_types_keep_their_hash(self, tmp_path):
        path = write_config(tmp_path / "c.json", tmp_path / "out")
        config = cli.load_run_config(path)
        # The hash this config had before integer and boolean fields were checked.
        assert config.config_hash == "d59293095c670eaa62684fd888e96928a1182768d7242cc7bfbe078174899e13"
        floats = write_config(tmp_path / "f.json", tmp_path / "out", mesh={"nx": 6.0}, sampler={"n_ens": 8.0})
        assert cli.load_run_config(floats).config_hash == config.config_hash
        for value in (True, False, None):
            doc = {"linear_case": {}, "sampler": {"metropolize": value}, "kernel": {"fit": bool(value)}}
            parsed = cli.parse_run_config(doc)
            assert parsed.metropolize is value and parsed.kernel_fit is bool(value)

    def test_linear_case_skips_flow_requirements(self):
        config = cli.parse_run_config({"linear_case": {"n_res": 12, "n_xi": 3, "n_eta": 2}})
        assert config.linear_case == {"n_res": 12, "n_xi": 3, "n_eta": 2}
        assert config.bc == {}

    def test_missing_config_file(self, capsys):
        assert cli.main(["map", "--config", "/nonexistent/c.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_config_file_named(self, tmp_path, capsys):
        truncated, listed = tmp_path / "c.json", tmp_path / "list.json"
        truncated.write_text('{"sigma_r_sq": 0.05, ')
        listed.write_text("[1, 2]")
        for path, reason in (
            (truncated, "Expecting property name"),
            (tmp_path, "Is a directory"),
            (listed, "JSON object"),
        ):
            assert cli.main(["map", "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert str(path) in err and reason in err


class TestConfigHash:
    def test_output_dir_excluded_from_hash(self, tmp_path):
        a = cli.load_run_config(write_config(tmp_path / "a.json", tmp_path / "out_a"))
        b = cli.load_run_config(write_config(tmp_path / "b.json", tmp_path / "out_b"))
        assert a.config_hash == b.config_hash
        assert "output_dir" not in a.science_dict()

    def test_seed_override_changes_hash(self, tmp_path):
        path = write_config(tmp_path / "c.json", tmp_path / "out")
        base = cli.load_run_config(path)
        reseeded = cli.load_run_config(path, seed=99)
        assert reseeded.base_seed == 99
        assert reseeded.config_hash != base.config_hash

    def test_science_fields_change_hash(self, tmp_path):
        base = cli.load_run_config(write_config(tmp_path / "a.json", tmp_path / "out"))
        bumped = cli.load_run_config(
            write_config(tmp_path / "b.json", tmp_path / "out", sigma_r_sq=[0.06])
        )
        assert base.config_hash != bumped.config_hash


class TestByteIdentity:
    def test_rerun_with_different_threads_and_directory(self, tmp_path):
        overrides = {"sampler": {"kind": "both", "n_ens": 6, "hmc_samples": 24,
                                 "hmc_chains": 2, "hmc_burn_in": 80}}
        trees = []
        for label, threads in (("one", "1"), ("two", "2")):
            out_dir = tmp_path / label
            path = write_config(tmp_path / f"{label}.json", out_dir, **overrides)
            for stage in STAGES:
                assert cli.main([stage, "--config", path, "--threads", threads]) == 0
            trees.append(tree_bytes(out_dir))
        first, second = trees
        assert first.keys() == second.keys()
        assert len(first) >= 12
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between reruns"


class TestSmoothingReducesDimension:
    def test_heavier_smoothing_needs_no_more_terms(self, tmp_path):
        # Same seed, same wells; the fitted kernel sees a smoother field and
        # the 95%-energy dimension of the conditioned expansion must not grow.
        manifests = {}
        for k in (0, 30):
            out_dir = tmp_path / f"k{k}"
            path = write_config(
                tmp_path / f"k{k}.json",
                out_dir,
                mesh={"nx": 8, "ny": 8},
                kernel={"fit": True, "sigma": 0.8, "length_scale": 0.3},
                truncation={},
                observations={"n_y_obs": 20, "n_u_obs": 8},
                smoothing_iterations=k,
                mc_draws=50,
                base_seed=5,
            )
            assert cli.main(["generate", "--config", path]) == 0
            assert cli.main(["build-prior", "--config", path]) == 0
            with open(out_dir / "prior" / "manifest.json") as fh:
                manifests[k] = json.load(fh)
        assert manifests[30]["n_xi"] <= manifests[0]["n_xi"]
        assert manifests[30]["kernel"]["length_scale"] > manifests[0]["kernel"]["length_scale"]


class TestLinearCaseStages:
    def test_map_matches_oracle(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            tmp_path / "out",
            linear_case={"n_res": 30, "n_xi": 5, "n_eta": 4},
            sigma_r_sq=[0.5],
            base_seed=42,
        )
        assert cli.main(["map", "--config", path]) == 0
        config = cli.load_run_config(path)
        mean, _ = linear_oracle(cli.linear_model_from_config(config), LossParams(sigma_r_sq=0.5))
        with open(tmp_path / "out" / "gamma_0.5" / "map.json") as fh:
            doc = json.load(fh)
        z = np.concatenate([doc["xi"], doc["eta"]])
        np.testing.assert_allclose(z, mean, atol=1e-6)

    def test_generate_and_diagnose_reject_linear(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "c.json", tmp_path / "out", linear_case={"n_res": 10, "n_xi": 2, "n_eta": 1}
        )
        assert cli.main(["generate", "--config", path]) == 1
        assert "linear_case" in capsys.readouterr().err
        assert cli.main(["diagnose", "--config", path]) == 1
        assert "linear_case" in capsys.readouterr().err

    def test_sampler_kind_gates_stages(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "c.json",
            tmp_path / "out",
            linear_case={"n_res": 10, "n_xi": 2, "n_eta": 1},
            sampler={"kind": "rpickle"},
        )
        assert cli.main(["sample-hmc", "--config", path]) == 1
        assert "sampler.kind" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_manifest_config_holds_the_run_settings(self, tmp_path):
        # Short chains; their PSRF warning is expected.
        path = write_config(
            tmp_path / "c.json",
            tmp_path / "out",
            linear_case={"n_res": 10, "n_xi": 2, "n_eta": 1},
            sampler={"kind": "both", "n_ens": 6, "metropolize": None,
                     "hmc_samples": 8, "hmc_chains": 2, "hmc_burn_in": 10},
        )
        assert cli.main(["sample-rpickle", "--config", path]) == 0
        assert cli.main(["sample-hmc", "--config", path]) == 0
        with open(tmp_path / "out" / "gamma_0.05" / "rpickle.json") as fh:
            doc = json.load(fh)
        assert doc["config"] == {"sigma_r_sq": 0.05, "n_ens": 6, "base_seed": 3, "metropolize": True}
        with open(tmp_path / "out" / "gamma_0.05" / "hmc.json") as fh:
            doc = json.load(fh)
        assert doc["config"] == {
            "n_samples": 8, "n_chains": 2, "burn_in": 10,
            "target_accept": 0.7, "leapfrog_steps": 32, "step_size": 0.1,
        }

    def test_samplers_start_no_thread_whatever_threads_says(self, tmp_path, monkeypatch):
        import threading

        path = write_config(
            tmp_path / "c.json",
            tmp_path / "out",
            linear_case={"n_res": 10, "n_xi": 2, "n_eta": 1},
            sampler={"kind": "both", "n_ens": 6, "hmc_samples": 8, "hmc_chains": 3,
                     "hmc_burn_in": 10},
        )

        def refuse(thread):
            raise RuntimeError("a stage started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert cli.main(["sample-rpickle", "--config", path, "--threads", "4"]) == 0
        assert cli.main(["sample-hmc", "--config", path, "--threads", "3"]) == 0


PIPELINE = {
    "sigma_r_sq": [0.05, 0.2],
    "sampler": {"kind": "both", "n_ens": 8, "hmc_samples": 30, "hmc_chains": 2, "hmc_burn_in": 100},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full six-stage run over two sigma_r_sq values, shared by read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    out_dir = root / "out"
    path = write_config(root / "config.json", out_dir, **PIPELINE)
    for stage in STAGES:
        assert cli.main([stage, "--config", path]) == 0
    return cli.load_run_config(path), str(out_dir)


class TestPipelineArtifacts:
    def test_expected_files_per_gamma(self, pipeline):
        _, out_dir = pipeline
        for gamma in ("0.05", "0.2"):
            gamma_dir = os.path.join(out_dir, f"gamma_{gamma}")
            for name in ("map.json", "rpickle.csv", "rpickle.json", "hmc.csv", "hmc.json",
                         "report.json", "fields.csv", "convergence.csv"):
                assert os.path.exists(os.path.join(gamma_dir, name)), f"{gamma}/{name}"

    def test_summary_has_one_row_per_gamma(self, pipeline):
        config, out_dir = pipeline
        with open(os.path.join(out_dir, "summary.csv")) as fh:
            lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
        assert lines[0].split(",") == list(cli.SUMMARY_COLUMNS)
        rows = lines[1:]
        assert len(rows) == len(config.gammas)
        assert [row.split(",")[0] for row in rows] == [repr(g) for g in config.gammas]
        for row in rows:
            fields = row.split(",")
            assert fields[1] == "8"
            assert all(field for field in fields)

    def test_hash_and_seed_in_every_file(self, pipeline):
        config, out_dir = pipeline
        expected = config.config_hash
        checked = 0
        for dirpath, _, files in os.walk(out_dir):
            for name in files:
                if name == "timing.json":
                    continue
                path = os.path.join(dirpath, name)
                if name.endswith(".csv"):
                    with open(path) as fh:
                        text = fh.read()
                    assert f"# config_hash={expected}" in text, path
                    assert f"# base_seed={config.base_seed}" in text, path
                else:
                    with open(path) as fh:
                        doc = json.load(fh)
                    stamp = doc if "config_hash" in doc else doc.get("meta", {})
                    assert stamp.get("config_hash") == expected, path
                    assert stamp.get("base_seed") == config.base_seed, path
                checked += 1
        assert checked >= 20

    def test_manifests_echo_scientific_config(self, pipeline):
        config, out_dir = pipeline
        for rel in ("case/manifest.json", "prior/manifest.json", "gamma_0.05/rpickle.json"):
            with open(os.path.join(out_dir, rel)) as fh:
                doc = json.load(fh)
            echoed = doc.get("run_config") or doc.get("meta", {}).get("run_config")
            assert echoed == config.science_dict(), rel

    def test_ensemble_roundtrips_from_disk(self, pipeline):
        config, out_dir = pipeline
        ensemble = ensemble_from_csv(os.path.join(out_dir, "gamma_0.05", "rpickle.csv"))
        assert len(ensemble) == config.n_ens
        assert ensemble.moments_defined

    def test_timing_records_every_stage(self, pipeline):
        _, out_dir = pipeline
        with open(os.path.join(out_dir, "timing.json")) as fh:
            timing = json.load(fh)
        assert set(timing) == set(STAGES)
        assert all(value >= 0 for value in timing.values())


class TestCorruptInputs:
    """Bad files from earlier stages end ``diagnose`` with exit 1 and an ``error:`` line."""

    @staticmethod
    def corrupt_copy(pipeline, tmp_path, rel, edit):
        _, out_dir = pipeline
        shutil.copytree(out_dir, tmp_path / "out")
        target = tmp_path / "out" / rel
        lines = target.read_text().splitlines()
        target.write_text("\n".join(edit(lines)) + "\n")
        return write_config(tmp_path / "config.json", tmp_path / "out", **PIPELINE)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:-2] + [lines[-1], lines[-1]],  # a repeated cell, one left out
            lambda lines: lines[:-2] + lines[-1:],  # a missing cell
        ],
    )
    def test_bad_reference_field(self, pipeline, tmp_path, capsys, edit):
        path = self.corrupt_copy(pipeline, tmp_path, "case/y_ref.csv", edit)
        assert cli.main(["diagnose", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "each once" in err

    @pytest.mark.parametrize(
        "eta",
        [
            lambda eta: eta + [0.0],  # one term too many
            lambda eta: eta[:-1],  # one term too few
            lambda eta: eta[:-1] + [float("nan")],
        ],
        ids=["long", "short", "nan"],
    )
    def test_tampered_map_eta(self, pipeline, tmp_path, capsys, eta):
        def edit(lines):
            doc = json.loads("\n".join(lines))
            doc["eta"] = eta(doc["eta"])
            return json.dumps(doc).splitlines()

        path = self.corrupt_copy(pipeline, tmp_path, "gamma_0.05/map.json", edit)
        assert cli.main(["diagnose", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and os.path.join("gamma_0.05", "map.json") in err

    @pytest.mark.parametrize(
        "rel, key, tamper",
        [
            ("prior/y_basis.json", "eigenvalues", None),
            ("prior/y_basis.json", "mean", lambda mean: mean[:-1]),
            ("prior/u_basis.json", "eigenvectors", lambda vecs: vecs[:-1]),
            ("prior/u_basis.json", "eigenvalues", lambda vals: vals[:-1] + [float("nan")]),
            ("case/case.json", "u_obs", None),
            ("case/case.json", "y_obs", lambda obs: {**obs, "cells": obs["cells"][:-1]}),
        ],
        ids=[
            "basis-no-eigenvalues", "basis-short-mean", "basis-short-modes", "basis-nan",
            "case-no-u_obs", "case-short-cells",
        ],
    )
    def test_tampered_prior_and_case(self, pipeline, tmp_path, capsys, rel, key, tamper):
        # These used to end in a KeyError or a numpy reshape error that named no file.
        def edit(lines):
            doc = json.loads("\n".join(lines))
            if tamper is None:
                del doc[key]
            else:
                doc[key] = tamper(doc[key])
            return json.dumps(doc).splitlines()

        path = self.corrupt_copy(pipeline, tmp_path, rel, edit)
        assert cli.main(["diagnose", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and os.path.join(*rel.split("/")) in err

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda obs: {**obs, "locations": [[float("nan"), 0.5]] + obs["locations"][1:]}, "finite"),
            (lambda obs: {**obs, "cells": obs["cells"][:-1] + [10_000]}, "outside the 36-cell mesh"),
            (lambda obs: {**obs, "locations": obs["locations"][:-1] + [[5.0, obs["locations"][-1][1]]]}, "center"),
        ],
        ids=["nan-location", "cell-outside-mesh", "moved-location"],
    )
    def test_tampered_well_stops_build_prior(self, pipeline, tmp_path, capsys, tamper, message):
        # The kernel fit reads the locations and the conditioning the cells,
        # so a well whose two disagree must stop the stage, naming the file.
        def edit(lines):
            doc = json.loads("\n".join(lines))
            doc["y_obs"] = tamper(doc["y_obs"])
            return json.dumps(doc).splitlines()

        path = self.corrupt_copy(pipeline, tmp_path, "case/case.json", edit)
        assert cli.main(["build-prior", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and os.path.join("case", "case.json") in err and message in err

    @pytest.mark.parametrize("name", ["y_basis.json", "u_basis.json"])
    def test_basis_one_cell_short(self, pipeline, tmp_path, capsys, name):
        # A basis that reads cleanly but covers one cell less than the mesh
        # used to fail in the residual model with a message naming no file.
        def edit(lines):
            doc = json.loads("\n".join(lines))
            doc["mean"] = doc["mean"][:-1]
            doc["eigenvectors"] = doc["eigenvectors"][:-1]
            return json.dumps(doc).splitlines()

        path = self.corrupt_copy(pipeline, tmp_path, f"prior/{name}", edit)
        assert cli.main(["diagnose", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and os.path.join("prior", name) in err and "cells" in err

    @pytest.mark.parametrize("value", ["nan", "abc"])
    def test_tampered_ensemble_coefficient(self, pipeline, tmp_path, capsys, value):
        def edit(lines):
            row = lines[-1].split(",")
            row[1] = value
            return lines[:-1] + [",".join(row)]

        path = self.corrupt_copy(pipeline, tmp_path, "gamma_0.05/rpickle.csv", edit)
        assert cli.main(["diagnose", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and os.path.join("gamma_0.05", "rpickle.csv") in err

    def test_ensemble_flags_other_than_zero_or_one(self, pipeline, tmp_path, capsys):
        # Read as False, such rows would silently leave the moments, exit 0.
        def edit(lines):
            rows = [row.split(",") for row in lines[-5:]]
            return lines[:-5] + [",".join(row[:-2] + ["true", "yes"]) for row in rows]

        path = self.corrupt_copy(pipeline, tmp_path, "gamma_0.05/rpickle.csv", edit)
        assert cli.main(["diagnose", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and os.path.join("gamma_0.05", "rpickle.csv") in err and "0 or 1" in err

    def test_short_ensemble_row(self, pipeline, tmp_path, capsys):
        edit = lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]]  # noqa: E731
        path = self.corrupt_copy(pipeline, tmp_path, "gamma_0.05/rpickle.csv", edit)
        assert cli.main(["diagnose", "--config", path]) == 1
        assert "columns" in capsys.readouterr().err


class TestDegenerateEnsemble:
    def test_single_sample_run_warns_and_leaves_blanks(self, tmp_path):
        out_dir = tmp_path / "out"
        path = write_config(tmp_path / "c.json", out_dir, sampler={"kind": "rpickle", "n_ens": 1})
        for stage in ("generate", "build-prior", "map", "sample-rpickle"):
            assert cli.main([stage, "--config", path]) == 0
        ensemble = ensemble_from_csv(out_dir / "gamma_0.05" / "rpickle.csv")
        assert len(ensemble) == 1 and not ensemble.moments_defined
        with pytest.warns(UserWarning, match="usable"):
            assert cli.main(["diagnose", "--config", path]) == 0
        with open(out_dir / "summary.csv") as fh:
            rows = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
        assert rows[1] == "0.05,1,,,,,"
        assert not os.path.exists(out_dir / "gamma_0.05" / "report.json")


class TestRestartability:
    def test_stages_demand_their_inputs_then_resume(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", tmp_path / "out")
        assert cli.main(["map", "--config", path]) == 1
        assert "generate" in capsys.readouterr().err
        assert cli.main(["generate", "--config", path]) == 0
        assert cli.main(["map", "--config", path]) == 1
        assert "build-prior" in capsys.readouterr().err
        assert cli.main(["build-prior", "--config", path]) == 0
        assert cli.main(["diagnose", "--config", path]) == 1
        assert "sample-rpickle" in capsys.readouterr().err
        assert cli.main(["sample-rpickle", "--config", path]) == 0
        assert cli.main(["map", "--config", path]) == 0
        assert cli.main(["diagnose", "--config", path]) == 0


class TestOracleCheck:
    def test_passes_at_documented_tolerances(self, capsys):
        assert cli.main(["oracle-check", "--n-ens", "4000", "--cov-tol", "0.15",
                         "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_tight_covariance_tolerance_reports_failure(self, capsys):
        # 0.1% relative Frobenius sits far below the Monte Carlo floor at
        # this ensemble size, so the suite must flag it and exit nonzero.
        assert cli.main(["oracle-check", "--n-ens", "1500", "--cov-tol", "0.001",
                         "--threads", "4"]) == 2
        out = capsys.readouterr().out
        assert "FAIL sample covariance" in out

    @pytest.mark.parametrize(
        "args",
        [
            ["--n-ens", "1"],
            ["--cov-tol", "nan"],
            ["--cov-tol", "-1"],
            ["--cov-tol", "0"],
            ["--cov-tol", "inf"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_arguments_exit_one_before_any_work(self, capsys, args):
        assert cli.main(["oracle-check", *args]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err and args[0] in err

    @pytest.mark.parametrize("seed", range(5))
    def test_pass_status_stable_across_seeds(self, seed):
        assert cli.main(["oracle-check", "--seed", str(seed), "--n-ens", "4000",
                         "--cov-tol", "0.15", "--threads", "4"]) == 0


class TestExitCodes:
    def test_numerical_failure_maps_to_two(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path / "c.json", tmp_path / "out")

        def explode(config):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setitem(cli._STAGE_HANDLERS, "map", explode)
        assert cli.main(["map", "--config", path]) == 2
        assert "synthetic blow-up" in capsys.readouterr().err

    def test_help_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rpickle.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "oracle-check" in proc.stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a stage's start-up; no stage needs it
    code = "import sys, rpickle.cli; sys.exit('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "importing rpickle.cli loaded scipy.stats"
