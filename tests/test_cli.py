"""CLI: thin delegation, stable exit codes, deterministic sim outputs."""

import json
import random

import pytest

from revokebench.cli import main
from revokebench.core import DAY
from revokebench.crt import parse_proof


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
        ks = ["--keystore", keystore_file]
        state = workdir / "crs.json"
        assert invoke("crs-setup", "--state", state, "--serial", 7, "--periods", 5,
                      "--anchor-out", workdir / "anchor.bin", "--seed", 1) == 0
        argv = {
            "crl-issue": ["crl-issue", *ks, "--ledger", ledger_file, "--now", 1000,
                          "--out", workdir / "crl.bin"],
            "crt-build": ["crt-build", *ks, "--revoked", revoked, "--now", 0,
                          "--out", workdir / "tree.bin"],
            "crs-token": ["crs-token", "--state", state, "--serial", 7, "--period", 1,
                          "--out", workdir / "token.bin"],
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


def _crl_fields_end(data: bytes) -> int:
    """Where a CRL's issuer and kind texts end: its two update times and
    then the window_start option flag follow."""
    issuer_end = 4 + int.from_bytes(data[:4], "big")
    return issuer_end + 4 + int.from_bytes(data[issuer_end : issuer_end + 4], "big")


def _with_byte(data: bytes, at: int, value: int) -> bytes:
    return data[:at] + bytes([value]) + data[at + 1 :]


# command, the flag naming the wire file made malformed, and how the genuine
# file's bytes are altered
MALFORMED_WIRE = {
    "crl truncated": ("crl-check", "--doc", lambda b: b[:-1]),
    "crl with a trailing byte": ("crl-check", "--doc", lambda b: b + b"\x00"),
    "crl of an unknown kind": (  # kind "full" becomes "fuzz", its length prefix kept
        "crl-check", "--doc", lambda b: b.replace(b"\x04full", b"\x04fuzz", 1)
    ),
    "crl option flag 2": (
        "crl-check", "--doc", lambda b: _with_byte(b, _crl_fields_end(b) + 16, 2)
    ),
    "tree truncated": ("crt-prove", "--tree", lambda b: b[:-1]),
    "tree with a trailing byte": ("crt-prove", "--tree", lambda b: b + b"\x00"),
    "tree serials out of order": ("crt-prove", "--tree", lambda b: b[:-16] + b[-8:] + b[-16:-8]),
    "tree root of other serials": ("crt-prove", "--tree", lambda b: b[:-1] + bytes([b[-1] ^ 1])),
    "anchor truncated": ("crs-verify", "--anchor", lambda b: b[:-1]),
    "anchor with a trailing byte": ("crs-verify", "--anchor", lambda b: b + b"\x00"),
}


class TestMalformedWire:
    """A wire file that is not exactly the bytes its writer makes is a usage
    error that names the file, not a traceback."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_WIRE))
    def test_malformed_bytes_exit_2(self, workdir, keystore_file, ledger_file, capsys, case):
        command, flag, alter = MALFORMED_WIRE[case]
        ks = ["--keystore", keystore_file]
        revoked = workdir / "revoked.json"
        revoked.write_text(json.dumps([5, 11]))
        doc, tree = workdir / "crl.bin", workdir / "tree.bin"
        state, anchor, token = workdir / "crs.json", workdir / "anchor.bin", workdir / "token.bin"
        assert invoke("crl-issue", *ks, "--ledger", ledger_file, "--now", 1000,
                      "--out", doc) == 0
        assert invoke("crt-build", *ks, "--revoked", revoked, "--now", 0, "--out", tree) == 0
        assert invoke("crs-setup", "--state", state, "--serial", 7, "--periods", 5,
                      "--anchor-out", anchor, "--seed", 1) == 0
        assert invoke("crs-token", "--state", state, "--serial", 7, "--period", 1,
                      "--out", token) == 0
        argv = {
            "crl-check": ["crl-check", *ks, "--serial", 7, "--now", 2000, "--doc", doc],
            "crt-prove": ["crt-prove", "--tree", tree, "--serial", 9,
                          "--out", workdir / "proof.bin"],
            "crs-verify": ["crs-verify", "--anchor", anchor, "--token", token, "--period", 1],
        }[command]
        assert invoke(*argv) == 0  # the genuine files pass
        path = argv[argv.index(flag) + 1]
        path.write_bytes(alter(path.read_bytes()))
        capsys.readouterr()
        assert invoke(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


class TestLedgerValidityTimes:
    """A ledger certificate with a validity time off the u64 clock is a usage
    error with a message, not a struct.error traceback."""

    @pytest.mark.parametrize("field, value", [("not_after", 2**64), ("not_before", -5)])
    @pytest.mark.parametrize("command", ["crl-issue", "ocsp-query"])
    def test_out_of_range_time_exits_2(
        self, workdir, keystore_file, ledger_file, capsys, command, field, value
    ):
        ks = ["--keystore", keystore_file, "--ledger", ledger_file, "--now", 600]
        argv = {
            "crl-issue": ["crl-issue", *ks, "--out", workdir / "crl.bin"],
            "ocsp-query": ["ocsp-query", *ks, "--serial", 9],
        }[command]
        assert invoke(*argv) == 0  # the genuine ledger passes
        ledger = json.loads(ledger_file.read_text())
        ledger_file.write_text(json.dumps(_with_first(ledger, "certificates", **{field: value})))
        capsys.readouterr()
        assert invoke(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"simulated time {value} outside" in err


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
        assert out.exists() and not (workdir / "crl.bin.json").exists()  # no JSON twin
        code = invoke(
            "crl-check",
            "--keystore", keystore_file,
            "--serial", 7,
            "--now", 2000,
            "--doc", out,
        )
        assert code == 0
        assert capsys.readouterr().out.strip().endswith("revoked")
        # past next_update the information is stale: semantic failure
        code = invoke(
            "crl-check",
            "--keystore", keystore_file,
            "--serial", 7,
            "--now", 1000 + DAY,
            "--doc", out,
        )
        assert code == 1


    def test_a_subject_key_in_the_ledger_is_ignored(self, workdir, keystore_file, ledger_file):
        """A certificate's subject is derived from its serial, so a ledger
        entry's "subject" key is ignored like any other unknown key."""
        ledger = json.loads(ledger_file.read_text())
        named = workdir / "named.json"
        named.write_text(json.dumps(_with_first(ledger, "certificates", subject="alice")))
        written = []
        for path in (ledger_file, named):
            out = workdir / f"{path.stem}.bin"
            argv = ["--keystore", keystore_file, "--ledger", path, "--now", 1000, "--out", out]
            assert invoke("crl-issue", *argv) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestCrtCommands:
    def test_prove_verify_round_trip_matches_membership(self, workdir, keystore_file, capsys):
        """Oracle: membership scan over a random revoked set."""
        rng = random.Random(17)
        revoked = sorted(rng.sample(range(1, 500), 25))
        revoked_file = workdir / "revoked.json"
        revoked_file.write_text(json.dumps(revoked))
        tree = workdir / "tree.bin"
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
        tree = workdir / "tree.bin"
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
            "crt-prove", "--tree", tree, "--serial", 9, "--out", proof,
        )
        code = invoke(
            "crt-verify", "--keystore", keystore_file, "--proof", proof,
            "--serial", 9, "--now", 100,
        )
        assert code == 1

    def test_prove_reads_the_tree_file_alone(self, workdir, keystore_file, capsys):
        """crt-prove takes no keystore and signs nothing: its proof carries
        the root crt-build signed, whose wire bytes open the tree file."""
        revoked_file = workdir / "revoked.json"
        revoked_file.write_text(json.dumps([5, 11, 20]))
        tree, proof = workdir / "tree.bin", workdir / "proof.bin"
        assert invoke("crt-build", "--keystore", keystore_file, "--revoked", revoked_file,
                      "--now", 0, "--out", tree) == 0
        assert invoke("crt-prove", "--tree", tree, "--serial", 14, "--out", proof) == 0
        root = parse_proof(proof.read_bytes()).signed_root.to_bytes()
        assert tree.read_bytes().startswith(root)
        for flag in (["--keystore", keystore_file], ["--key", "ca"]):
            with pytest.raises(SystemExit) as exc:
                invoke("crt-prove", *flag, "--tree", tree, "--serial", 14, "--out", proof)
            assert exc.value.code == 2

    def test_truncated_proof_is_usage_error(self, workdir, keystore_file, capsys):
        revoked_file = workdir / "revoked.json"
        revoked_file.write_text(json.dumps([5, 11]))
        tree = workdir / "tree.bin"
        invoke("crt-build", "--keystore", keystore_file, "--revoked", revoked_file,
               "--now", 0, "--out", tree)
        proof = workdir / "proof.bin"
        invoke("crt-prove", "--tree", tree, "--serial", 9, "--out", proof)
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
        anchor = workdir / "anchor.bin"
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
        anchor = workdir / "anchor.bin"
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

    @pytest.mark.parametrize(
        "fields",
        [
            {"horizon": 2.0 * DAY},
            {"validation_pattern": "fixed_gap", "validation_gap": 3600.0},
            {"population": True},
            {"validation_rate": True},
            {"scheme": "delta_crl", "delta_period": 6.0 * 3600},
            {"scheme": "delta_crl", "delta_period": 6 * 3600, "extra_delta_times": [DAY + 0.5]},
            {"depender_nodes": 5, "node_failures": [[DAY, 1.0]]},
        ],
        ids=lambda fields: ",".join(f"{k}={v!r}" for k, v in fields.items()),
    )
    def test_config_field_of_wrong_json_type_is_usage_error(self, workdir, capsys, fields):
        """An int field takes an int, not a float or a bool, and a float field
        takes no bool; the error names the last field given."""
        config = workdir / "typed.json"
        config.write_text(json.dumps({**json.loads(self._config(workdir).read_text()), **fields}))
        assert invoke("sim", "--config", config, "--out-dir", workdir / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and list(fields)[-1] in err

    def test_float_field_takes_an_int(self, workdir, capsys):
        config = workdir / "typed.json"
        config.write_text(json.dumps({**json.loads(self._config(workdir).read_text()),
                                      "validation_rate": 2}))
        assert invoke("sim", "--config", config, "--out-dir", workdir / "x") == 0

    def test_unknown_config_field_usage_error(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "horizon": 100, "population": 1,
                                   "scheme": "full_crl", "bogus_field": 3}))
        assert invoke("sim", "--config", bad, "--out-dir", workdir / "x") == 2


U64_FLAGS = {
    # command -> its arguments, with {now} and {serial} where the flags under test go
    "crl-issue": ["--keystore", "ks.json", "--ledger", "ledger.json", "--now", "{now}",
                  "--out", "crl.bin"],
    "crl-check": ["--keystore", "ks.json", "--serial", "{serial}", "--now", "{now}",
                  "--doc", "crl.bin"],
    "crs-setup": ["--state", "crs.json", "--serial", "{serial}", "--anchor-out", "anchor.bin"],
    "crs-revoke": ["--state", "crs.json", "--serial", "{serial}"],
    "crs-token": ["--state", "crs.json", "--serial", "{serial}", "--period", 4,
                  "--out", "token.bin"],
    "crt-build": ["--keystore", "ks.json", "--revoked", "revoked.json", "--now", "{now}",
                  "--out", "tree.bin"],
    "crt-prove": ["--tree", "tree.bin", "--serial", "{serial}", "--out", "proof.bin"],
    "crt-verify": ["--keystore", "ks.json", "--proof", "proof.bin", "--serial", "{serial}",
                   "--now", "{now}"],
    "ocsp-query": ["--keystore", "ks.json", "--ledger", "ledger.json", "--serial", "{serial}",
                   "--now", "{now}"],
}


@pytest.fixture
def scene(tmp_path, monkeypatch, keystore_file, ledger_file, capsys):
    """A working directory where every command of U64_FLAGS has run once, at
    now 600 and serial 7, leaving the files each command reads."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "revoked.json").write_text("[5, 11, 20]")
    for command, flags in U64_FLAGS.items():
        argv = [str(a).format(now=600, serial=7) for a in flags]
        assert invoke(command, *argv) in (0, 1), command
    capsys.readouterr()


class TestU64Flags:
    """--now and --serial outside the unsigned 64-bit range, or at its top,
    end in an exit code and a message, never a traceback."""

    @pytest.mark.parametrize("value", [-1, 2**64, 2**64 - 1])
    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, flags in U64_FLAGS.items() for f in ("now", "serial") if f"{{{f}}}" in flags],
    )
    def test_exits_without_traceback(self, scene, capsys, command, flag, value):
        argv = [str(a).format(**{"now": 600, "serial": 7, flag: value}) for a in U64_FLAGS[command]]
        try:
            code = invoke(command, *argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2)
        if value != 2**64 - 1:
            assert code == 2
        assert "Traceback" not in capsys.readouterr().err


INT_FLAGS = {
    # command -> (its other arguments, each flag under test at a valid value)
    "crl-issue": (U64_FLAGS["crl-issue"], {"--base-period": DAY, "--delta-period": 3600,
                                           "--window": 3 * DAY}),
    "crs-setup": (U64_FLAGS["crs-setup"], {"--periods": 30, "--period-length": DAY}),
    "crs-token": (["--state", "crs.json", "--serial", 7, "--out", "token.bin"], {"--period": 4}),
    "crs-verify": (["--anchor", "anchor.bin", "--token", "token.bin"],
                   {"--period": 4, "--width": 100}),
    "crt-build": (U64_FLAGS["crt-build"], {"--validity": DAY}),
}
# flags typed 1..2**32-1; the others are typed 1..2**64-1
U32_FLAGS = {"--periods", "--period", "--width"}


def _int_flag_argv(command: str, changed: dict) -> list[str]:
    """INT_FLAGS[command] at now 600 and a serial the scene has not set up,
    with the flags in changed given those values."""
    base, flags = INT_FLAGS[command]
    argv = [str(a).format(now=600, serial=8) for a in base]
    for flag, value in {**flags, **changed}.items():
        argv += [flag, str(value)]
    return argv


class TestBoundedIntFlags:
    """The other integer flags take only their domain: a positive count or
    length, at most 2**32-1 where CRS packs it in four bytes, else
    2**64-1. Outside it argparse exits 2 naming the flag."""

    @pytest.mark.parametrize("command", sorted(INT_FLAGS))
    def test_valid_values_run(self, scene, command):
        assert invoke(command, *_int_flag_argv(command, {})) in (0, 1)

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, flag, value)
            for command, (_, flags) in INT_FLAGS.items()
            for flag in flags
            for value in [-1, 0, 2**64] + ([2**32] if flag in U32_FLAGS else [])
        ],
    )
    def test_out_of_domain_is_usage_error(self, scene, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            invoke(command, *_int_flag_argv(command, {flag: value}))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {value} is outside" in err and "Traceback" not in err
