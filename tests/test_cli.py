"""CLI: thin delegation, stable exit codes, deterministic sim outputs."""

import json
import random

import pytest

from revokebench.cli import main
from revokebench.core import DAY


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def invoke(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def keystore_file(workdir):
    path = workdir / "ks.json"
    assert invoke("keygen", "--keystore", path, "--key-id", "ca", "--seed", 5) == 0
    return path


@pytest.fixture
def ledger_file(workdir):
    path = workdir / "ledger.json"
    path.write_text(
        json.dumps(
            {
                "certificates": [
                    {"serial": s, "not_before": 0, "not_after": 10 * DAY} for s in (3, 7, 9)
                ],
                "revocations": [{"serial": 7, "revoked_at": 500}],
            }
        )
    )
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke("crl-check", "--no-such-flag")
        assert exc.value.code == 2

    def test_malformed_input_is_usage_error(self, workdir, keystore_file):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        assert (
            invoke(
                "crl-check",
                "--keystore", keystore_file,
                "--serial", 1,
                "--now", 0,
                "--doc", bad,
            )
            == 2
        )


def _with_first(ledger, listed, **changes):
    """The ledger with fields of the first of its certificates or
    revocations changed; the rest stay, so nothing else goes wrong."""
    first, *rest = ledger[listed]
    return {**ledger, listed: [{**first, **changes}, *rest]}


# command, the flag naming the file made malformed, and how the genuine
# file's JSON is altered
MALFORMED_JSON = {
    "crl entries not pairs": ("crl-check", "--doc", lambda d: {**d, "entries": [1]}),
    "crl entries null": ("crl-check", "--doc", lambda d: {**d, "entries": None}),
    "crl signature null": ("crl-check", "--doc", lambda d: {**d, "signature": None}),
    "crl mac a number": (
        "crl-check", "--doc", lambda d: {**d, "signature": {**d["signature"], "mac": 5}}
    ),
    "crl this_update a string": ("crl-check", "--doc", lambda d: {**d, "this_update": "x"}),
    "crl issuer a number": ("crl-check", "--doc", lambda d: {**d, "issuer": 5}),
    "crl update times strings": (
        "crl-check", "--doc", lambda d: {**d, "this_update": "a", "next_update": "b"}
    ),
    "crl entries of strings": ("crl-check", "--doc", lambda d: {**d, "entries": [["a", "b"]]}),
    "crl a list": ("crl-check", "--doc", lambda d: [d]),
    "ledger certificate a number": ("crl-issue", "--ledger", lambda d: {"certificates": [5]}),
    "ledger serial a string": (
        "crl-issue", "--ledger", lambda d: _with_first(d, "certificates", serial="3")
    ),
    "ledger serial a float": (
        "crl-issue", "--ledger", lambda d: _with_first(d, "certificates", serial=3.5)
    ),
    "ledger not_before a float": (
        "crl-issue", "--ledger", lambda d: _with_first(d, "certificates", not_before=0.5)
    ),
    "ledger revoked_at a float": (
        "crl-issue", "--ledger", lambda d: _with_first(d, "revocations", revoked_at=5.5)
    ),
    "ledger a list": ("crl-issue", "--ledger", lambda d: [d]),
    "keystore keys a list": ("crl-issue", "--keystore", lambda d: {"keys": [1]}),
    "revoked holds a string": ("crt-build", "--revoked", lambda d: [5, "a"]),
    "revoked holds a float": ("crt-build", "--revoked", lambda d: [5, 5.5]),
    "revoked holds a bool": ("crt-build", "--revoked", lambda d: [5, True]),
    "tree serials null": ("crt-prove", "--tree", lambda d: {**d, "serials": None}),
    "tree issued_at a float": ("crt-prove", "--tree", lambda d: {**d, "issued_at": 0.5}),
    "anchor lifetime a bool, period length a float": (
        "crs-verify", "--anchor", lambda d: {**d, "lifetime_periods": True, "period_length": 0.5}
    ),
    "anchor y a number": ("crs-verify", "--anchor", lambda d: {**d, "y": 5}),
    "crs state width a float": ("crs-token", "--state", lambda d: {**d, "width_bits": 100.0}),
    "crs state lifetime a bool": (
        "crs-token",
        "--state",
        lambda d: {**d, "serials": {"7": {**d["serials"]["7"], "lifetime_periods": True}}},
    ),
}


class TestMalformedJson:
    """A JSON file of the wrong shape is a usage error that names the file,
    not a traceback."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
    def test_wrong_shape_exits_2(self, workdir, keystore_file, ledger_file, capsys, case):
        command, flag, alter = MALFORMED_JSON[case]
        revoked = workdir / "revoked.json"
        revoked.write_text(json.dumps([5, 11]))
        tree = workdir / "tree.json"
        doc = workdir / "crl.bin.json"
        ks = ["--keystore", keystore_file]
        assert invoke("crl-issue", *ks, "--ledger", ledger_file, "--now", 1000,
                      "--out", workdir / "crl.bin") == 0
        assert invoke("crt-build", *ks, "--revoked", revoked, "--now", 0, "--out", tree) == 0
        state, anchor, token = workdir / "crs.json", workdir / "anchor.json", workdir / "token.bin"
        assert invoke("crs-setup", "--state", state, "--serial", 7, "--periods", 5,
                      "--anchor-out", anchor, "--seed", 1) == 0
        assert invoke("crs-token", "--state", state, "--serial", 7, "--period", 1,
                      "--out", token) == 0
        argv = {
            "crl-check": ["crl-check", *ks, "--serial", 7, "--now", 2000, "--doc", doc],
            "crl-issue": ["crl-issue", *ks, "--ledger", ledger_file, "--now", 1000,
                          "--out", workdir / "again.bin"],
            "crt-build": ["crt-build", *ks, "--revoked", revoked, "--now", 0,
                          "--out", workdir / "again.json"],
            "crt-prove": ["crt-prove", *ks, "--tree", tree, "--serial", 9,
                          "--out", workdir / "proof.bin"],
            "crs-token": ["crs-token", "--state", state, "--serial", 7, "--period", 1,
                          "--out", workdir / "again.bin"],
            "crs-verify": ["crs-verify", "--anchor", anchor, "--token", token, "--period", 1],
        }[command]
        assert invoke(*argv) == 0  # the genuine files pass
        path = argv[argv.index(flag) + 1]
        path.write_text(json.dumps(alter(json.loads(path.read_text()))))
        capsys.readouterr()
        assert invoke(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("command", ["keygen", "crs-revoke"])
    def test_state_file_a_list_exits_2(self, workdir, capsys, command):
        """The commands that update a JSON file in place read it the same way."""
        path = workdir / "state.json"
        path.write_text(json.dumps([1]))
        argv = {
            "keygen": ["keygen", "--keystore", path, "--key-id", "ca"],
            "crs-revoke": ["crs-revoke", "--state", path, "--serial", 7],
        }[command]
        assert invoke(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


class TestCrlCommands:
    def test_issue_then_check(self, workdir, keystore_file, ledger_file, capsys):
        out = workdir / "crl.bin"
        assert (
            invoke(
                "crl-issue",
                "--keystore", keystore_file,
                "--ledger", ledger_file,
                "--now", 1000,
                "--out", out,
            )
            == 0
        )
        assert out.exists() and (workdir / "crl.bin.json").exists()
        code = invoke(
            "crl-check",
            "--keystore", keystore_file,
            "--serial", 7,
            "--now", 2000,
            "--doc", workdir / "crl.bin.json",
        )
        assert code == 0
        assert capsys.readouterr().out.strip().endswith("revoked")
        # past next_update the information is stale: semantic failure
        code = invoke(
            "crl-check",
            "--keystore", keystore_file,
            "--serial", 7,
            "--now", 1000 + DAY,
            "--doc", workdir / "crl.bin.json",
        )
        assert code == 1


class TestCrtCommands:
    def test_prove_verify_round_trip_matches_membership(self, workdir, keystore_file, capsys):
        """Oracle: membership scan over a random revoked set."""
        rng = random.Random(17)
        revoked = sorted(rng.sample(range(1, 500), 25))
        revoked_file = workdir / "revoked.json"
        revoked_file.write_text(json.dumps(revoked))
        tree = workdir / "tree.json"
        assert (
            invoke(
                "crt-build",
                "--keystore", keystore_file,
                "--revoked", revoked_file,
                "--now", 0,
                "--out", tree,
            )
            == 0
        )
        for serial in rng.sample(range(1, 500), 12):
            proof = workdir / "proof.bin"
            assert (
                invoke(
                    "crt-prove",
                    "--keystore", keystore_file,
                    "--tree", tree,
                    "--serial", serial,
                    "--out", proof,
                )
                == 0
            )
            capsys.readouterr()
            code = invoke(
                "crt-verify",
                "--keystore", keystore_file,
                "--proof", proof,
                "--serial", serial,
                "--now", 100,
            )
            printed = capsys.readouterr().out.strip()
            assert code == 0
            assert printed == ("revoked" if serial in revoked else "valid")

    def test_expired_proof_fails(self, workdir, keystore_file, capsys):
        revoked_file = workdir / "revoked.json"
        revoked_file.write_text(json.dumps([5]))
        tree = workdir / "tree.json"
        invoke(
            "crt-build",
            "--keystore", keystore_file,
            "--revoked", revoked_file,
            "--now", 0,
            "--validity", 100,
            "--out", tree,
        )
        proof = workdir / "proof.bin"
        invoke(
            "crt-prove", "--keystore", keystore_file, "--tree", tree,
            "--serial", 9, "--out", proof,
        )
        code = invoke(
            "crt-verify", "--keystore", keystore_file, "--proof", proof,
            "--serial", 9, "--now", 100,
        )
        assert code == 1

    def test_truncated_proof_is_usage_error(self, workdir, keystore_file, capsys):
        revoked_file = workdir / "revoked.json"
        revoked_file.write_text(json.dumps([5, 11]))
        tree = workdir / "tree.json"
        invoke("crt-build", "--keystore", keystore_file, "--revoked", revoked_file,
               "--now", 0, "--out", tree)
        proof = workdir / "proof.bin"
        invoke("crt-prove", "--keystore", keystore_file, "--tree", tree,
               "--serial", 9, "--out", proof)
        data = proof.read_bytes()
        for bad in (data[:30], data[:-1], data + b"\x00"):
            proof.write_bytes(bad)
            code = invoke("crt-verify", "--keystore", keystore_file, "--proof", proof,
                          "--serial", 9, "--now", 100)
            assert code == 2
            assert capsys.readouterr().err.startswith("error: proof")


class TestCrsCommands:
    def test_token_lifecycle_and_stale_rejection(self, workdir, capsys):
        state = workdir / "crs.json"
        anchor = workdir / "anchor.json"
        token = workdir / "token.bin"
        assert (
            invoke(
                "crs-setup",
                "--state", state,
                "--serial", 7,
                "--periods", 10,
                "--period-length", DAY,
                "--anchor-out", anchor,
                "--seed", 3,
            )
            == 0
        )
        assert (
            invoke(
                "crs-token", "--state", state, "--serial", 7, "--period", 4, "--out", token
            )
            == 0
        )
        capsys.readouterr()
        assert invoke("crs-verify", "--anchor", anchor, "--token", token, "--period", 4) == 0
        assert capsys.readouterr().out.strip() == "valid_at_period"
        # replaying the day-4 token at day 5 must fail
        assert invoke("crs-verify", "--anchor", anchor, "--token", token, "--period", 5) == 1
        capsys.readouterr()
        assert invoke("crs-revoke", "--state", state, "--serial", 7) == 0
        invoke("crs-token", "--state", state, "--serial", 7, "--period", 5, "--out", token)
        capsys.readouterr()
        assert invoke("crs-verify", "--anchor", anchor, "--token", token, "--period", 5) == 0
        assert capsys.readouterr().out.strip() == "revoked"

    def test_unknown_kind_byte_is_usage_error(self, workdir, capsys):
        state = workdir / "crs.json"
        anchor = workdir / "anchor.json"
        token = workdir / "token.bin"
        invoke("crs-setup", "--state", state, "--serial", 7, "--periods", 10,
               "--period-length", DAY, "--anchor-out", anchor, "--seed", 3)
        invoke("crs-token", "--state", state, "--serial", 7, "--period", 4, "--out", token)
        data = bytearray(token.read_bytes())
        data[8] = 2  # neither VALID (1) nor REVOKED (0)
        token.write_bytes(bytes(data))
        capsys.readouterr()
        assert invoke("crs-verify", "--anchor", anchor, "--token", token, "--period", 4) == 2
        assert "unknown token kind" in capsys.readouterr().err


class TestOcspCommand:
    def test_query_statuses(self, workdir, keystore_file, ledger_file, capsys):
        code = invoke(
            "ocsp-query",
            "--keystore", keystore_file,
            "--ledger", ledger_file,
            "--serial", 7,
            "--now", 600,
            "--seed", 1,
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "revoked"
        invoke(
            "ocsp-query",
            "--keystore", keystore_file,
            "--ledger", ledger_file,
            "--serial", 12345,
            "--now", 600,
            "--seed", 1,
        )
        assert capsys.readouterr().out.strip() == "unknown"


class TestSimCommand:
    def _config(self, workdir, seed=9):
        path = workdir / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "seed": seed,
                    "horizon": 5 * DAY,
                    "population": 100,
                    "scheme": "full_crl",
                    "n_clients": 8,
                    "validation_rate": 2.0,
                }
            )
        )
        return path

    def test_same_config_twice_byte_identical(self, workdir, capsys):
        config = self._config(workdir)
        out_a = workdir / "a"
        out_b = workdir / "b"
        assert invoke("sim", "--config", config, "--out-dir", out_a) == 0
        assert invoke("sim", "--config", config, "--out-dir", out_b) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "intervals.csv").read_bytes() == (out_b / "intervals.csv").read_bytes()

    def test_seed_override_changes_output_invariants_hold(self, workdir, capsys):
        config = self._config(workdir)
        out_a = workdir / "a"
        invoke("sim", "--config", config, "--out-dir", out_a)
        baseline = (out_a / "report.json").read_bytes()
        for seed in (77, 78, 79, 80, 81):
            out = workdir / f"seed{seed}"
            assert invoke("sim", "--config", config, "--out-dir", out, "--seed", seed) == 0
            data = (out / "report.json").read_bytes()
            assert data != baseline
            report = json.loads(data)
            assert report["false_revocation"] == 0
            assert report["bytes_sent"] == report["bytes_received"]
            assert sum(report["staleness_hist"].values()) == report["false_valid"]

    def test_compare_writes_table(self, workdir, capsys):
        a = self._config(workdir)
        b = workdir / "cfg_crt.json"
        data = json.loads(a.read_text())
        data["scheme"] = "crt"
        b.write_text(json.dumps(data))
        out = workdir / "cmp"
        assert invoke("sim", "--compare", a, b, "--out-dir", out) == 0
        table = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(table) == 3
        assert (out / "report_full_crl.json").exists()
        assert (out / "report_crt.json").exists()

    def test_tradeoff_preset_one_row_per_scheme(self, workdir, capsys):
        out = workdir / "preset"
        assert invoke("sim", "--preset", "paper-tradeoffs", "--out-dir", out) == 0
        table = (out / "comparison.csv").read_text().strip().splitlines()
        schemes = [line.split(",")[0] for line in table[1:]]
        assert len(schemes) == 9 and len(set(schemes)) == 9

    def test_non_comparable_configs_usage_error(self, workdir, capsys):
        a = self._config(workdir)
        b = workdir / "cfg2.json"
        data = json.loads(a.read_text())
        data["population"] = 200
        b.write_text(json.dumps(data))
        assert invoke("sim", "--compare", a, b, "--out-dir", workdir / "x") == 2

    def test_lifetime_past_the_clock_is_usage_error(self, workdir, capsys):
        config = workdir / "big.json"
        data = json.loads(self._config(workdir).read_text())
        data["cert_lifetime"] = 2**63
        config.write_text(json.dumps(data))
        assert invoke("sim", "--config", config, "--out-dir", workdir / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "cert_lifetime" in err

    def test_unknown_config_field_usage_error(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "horizon": 100, "population": 1,
                                   "scheme": "full_crl", "bogus_field": 3}))
        assert invoke("sim", "--config", bad, "--out-dir", workdir / "x") == 2
