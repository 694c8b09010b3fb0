"""Command-line entry point.

Every subcommand is a thin delegation to one module operation: scheme
commands read and write the modules' file formats, `sim` drives the
simulator. Human-readable summaries go to stdout; machine-readable artifacts
go only to files named by flags. Exit codes: 0 success, 1 semantic failure
(verification failed or information stale), 2 usage or malformed input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import crs as crs_mod
from . import crt as crt_mod
from . import responder as resp_mod
from . import simkit
from .core import DAY, HOUR, KeyStore, Ledger, OneWayFunction, ReasonCode, json_int, json_str
from .crl import CrlDocument, CrlIssuer, CrlStatus, IssuanceSchedule, check_status

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class InputError(ValueError):
    """Malformed input file or inconsistent arguments."""


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _reading(path: str):
    """The JSON in path, for the block that builds its module objects. A
    file of the wrong shape (a list where an object belongs, a field of the
    wrong type or missing) fails in that block with a TypeError,
    AttributeError or KeyError, raised again as an InputError naming the
    file. Integer and string fields are checked with json_int and json_str
    as they are read, since a float or bool passes the modules' own range
    checks."""
    try:
        yield _read_json(path)
    except (TypeError, AttributeError, KeyError) as exc:
        raise InputError(f"malformed {path}: {exc}") from exc


def _rng(seed):
    """A generator seeded for reproducible output, else the system's."""
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _write_json(path: str, data) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_keystore(path: str) -> KeyStore:
    ks = KeyStore()
    with _reading(path) as data:
        for key_id, secret_hex in data.get("keys", {}).items():
            ks.register(key_id, bytes.fromhex(secret_hex))
    return ks


def load_ledger(path: str, keystore: KeyStore, key_id: str) -> Ledger:
    ledger = Ledger()
    from .core import make_certificate

    with _reading(path) as data:
        for c in data.get("certificates", []):
            serial = json_int(c["serial"])
            ledger.add_certificate(
                make_certificate(
                    serial=serial,
                    subject=json_str(c.get("subject", f"subject-{serial}")),
                    not_before=json_int(c["not_before"]),
                    not_after=json_int(c["not_after"]),
                    keystore=keystore,
                    key_id=key_id,
                )
            )
        for r in data.get("revocations", []):
            ledger.revoke(
                json_int(r["serial"]),
                json_int(r["revoked_at"]),
                ReasonCode(r.get("reason", "other")),
            )
    return ledger


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_keygen(args) -> int:
    path = Path(args.keystore)
    rng = _rng(args.seed)
    with _reading(args.keystore) if path.exists() else nullcontext({"keys": {}}) as data:
        data["keys"][args.key_id] = rng.getrandbits(256).to_bytes(32, "big").hex()
    _write_json(args.keystore, data)
    print(f"registered key {args.key_id!r} in {args.keystore}")
    return EXIT_OK


def cmd_crl_issue(args) -> int:
    ks = load_keystore(args.keystore)
    ledger = load_ledger(args.ledger, ks, args.key)
    schedule = IssuanceSchedule(
        base_period=args.base_period,
        delta_period=args.delta_period,
        window_length=args.window,
    )
    issuer = CrlIssuer(ks, args.key, schedule)
    if args.kind == "full":
        doc = issuer.issue_full(ledger.revoked_non_expired(args.now), args.now)
    else:
        doc = issuer.issue_sliding_delta(ledger.revoked_non_expired(args.now), args.now)
    Path(args.out).write_bytes(doc.to_bytes())
    _write_json(args.out + ".json", doc.to_json_dict())
    print(
        f"issued {doc.kind.value} crl: {len(doc.entries)} entries, "
        f"valid [{doc.this_update}, {doc.next_update}) -> {args.out}"
    )
    return EXIT_OK


def cmd_crl_check(args) -> int:
    ks = load_keystore(args.keystore)
    docs = []
    for path in args.doc:
        with _reading(path) as data:
            docs.append(CrlDocument.from_json_dict(data))
    status = check_status(args.serial, docs, args.now, ks, args.key)
    print(status.value)
    return EXIT_OK if status is not CrlStatus.STALE_INFORMATION else EXIT_FAIL


def _load_crs_state(path: str) -> tuple[OneWayFunction, crs_mod.CrsAuthority, dict]:
    fresh = {"width_bits": 100, "serials": {}}
    with _reading(path) if Path(path).exists() else nullcontext(fresh) as data:
        f = OneWayFunction(json_int(data.get("width_bits", 100)))
        authority = crs_mod.CrsAuthority(f)
        for serial_str, entry in data.get("serials", {}).items():
            serial = int(serial_str)
            rng = _FixedSeeds(
                bytes.fromhex(json_str(entry["y0"])), bytes.fromhex(json_str(entry["n0"]))
            )
            authority.setup(
                serial, json_int(entry["lifetime_periods"]), json_int(entry["period_length"]), rng
            )
            if entry.get("revoked"):
                authority.revoke(serial)
    return f, authority, data


class _FixedSeeds:
    """rng stand-in replaying stored chain seeds when reloading CA state."""

    def __init__(self, y0: bytes, n0: bytes) -> None:
        self._values = [y0, n0]

    def getrandbits(self, bits: int) -> int:
        return int.from_bytes(self._values.pop(0), "big")


def cmd_crs_setup(args) -> int:
    f, authority, data = _load_crs_state(args.state)
    rng = _rng(args.seed)
    anchor, secret = authority.setup(args.serial, args.periods, args.period_length, rng)
    data.setdefault("serials", {})[str(args.serial)] = {
        "y0": secret.y0.hex(),
        "n0": secret.n0.hex(),
        "lifetime_periods": args.periods,
        "period_length": args.period_length,
        "revoked": False,
    }
    data["width_bits"] = f.width_bits
    _write_json(args.state, data)
    _write_json(
        args.anchor_out,
        {
            "y": anchor.y.hex(),
            "n": anchor.n.hex(),
            "lifetime_periods": anchor.lifetime_periods,
            "period_length": anchor.period_length,
        },
    )
    print(f"serial {args.serial}: anchor written to {args.anchor_out}")
    return EXIT_OK


def cmd_crs_revoke(args) -> int:
    with _reading(args.state) as data:
        entry = data["serials"].get(str(args.serial))
        if entry is None:
            raise InputError(f"serial {args.serial} not in CA state")
        entry["revoked"] = True
    _write_json(args.state, data)
    print(f"serial {args.serial} marked revoked")
    return EXIT_OK


def cmd_crs_token(args) -> int:
    f, authority, _ = _load_crs_state(args.state)
    token = authority.issue_token(args.serial, args.period)
    Path(args.out).write_bytes(token.to_bytes())
    print(f"{token.kind.value} token for serial {args.serial}, period {args.period} -> {args.out}")
    return EXIT_OK


def cmd_crs_verify(args) -> int:
    from .core import CrsAnchor

    with _reading(args.anchor) as data:
        anchor = CrsAnchor(
            y=bytes.fromhex(json_str(data["y"])),
            n=bytes.fromhex(json_str(data["n"])),
            lifetime_periods=json_int(data["lifetime_periods"]),
            period_length=json_int(data["period_length"]),
        )
    f = OneWayFunction(args.width)
    token = crs_mod.parse_token(Path(args.token).read_bytes(), f)
    status = crs_mod.crs_verify(token, anchor, args.period, f)
    print(status.value)
    return EXIT_OK if status is not crs_mod.CrsStatus.INVALID_TOKEN else EXIT_FAIL


def cmd_crt_build(args) -> int:
    ks = load_keystore(args.keystore)
    with _reading(args.revoked) as revoked:
        if not isinstance(revoked, list):
            raise InputError("revoked file must be a JSON list of serials")
        tree = crt_mod.crt_build(map(json_int, revoked), args.now, args.validity, ks, args.key)
    _write_json(
        args.out,
        {
            "serials": list(tree.serials),
            "issued_at": tree.signed_root.issued_at,
            "next_update": tree.signed_root.next_update,
            "root": tree.root.hex(),
            "signature": {
                "key_id": tree.signed_root.signature.key_id,
                "mac": tree.signed_root.signature.mac.hex(),
            },
        },
    )
    print(f"built tree over {len(tree.serials)} revoked serials ({len(tree.leaves)} leaves) -> {args.out}")
    return EXIT_OK


def _load_tree(path: str, keystore: KeyStore, key_id: str) -> crt_mod.CrtTree:
    from .core import Signature

    with _reading(path) as data:
        issued_at = json_int(data["issued_at"])
        next_update = json_int(data["next_update"])
        rebuilt = crt_mod.crt_build(map(json_int, data["serials"]), issued_at,
                                    next_update - issued_at, keystore, key_id)
        if rebuilt.root.hex() != data["root"]:
            raise InputError("tree file root does not match its serial set")
        signature = data["signature"]
        signed = crt_mod.SignedRoot(
            root=bytes.fromhex(data["root"]),
            issued_at=issued_at,
            next_update=next_update,
            signature=Signature(json_str(signature["key_id"]), bytes.fromhex(signature["mac"])),
        )
    return crt_mod.CrtTree(
        serials=rebuilt.serials, leaves=rebuilt.leaves, levels=rebuilt.levels, signed_root=signed
    )


def cmd_crt_prove(args) -> int:
    ks = load_keystore(args.keystore)
    tree = _load_tree(args.tree, ks, args.key)
    proof = crt_mod.crt_prove(tree, args.serial)
    Path(args.out).write_bytes(proof.to_bytes())
    print(
        f"proof for serial {args.serial}: leaf ({proof.leaf.lo}, {proof.leaf.hi}), "
        f"{len(proof.siblings)} siblings, {proof.wire_size} bytes -> {args.out}"
    )
    return EXIT_OK


def cmd_crt_verify(args) -> int:
    ks = load_keystore(args.keystore)
    proof = crt_mod.parse_proof(Path(args.proof).read_bytes())
    verdict = crt_mod.crt_verify(proof, args.serial, ks, args.key, args.now)
    print(verdict.value)
    ok = verdict in (crt_mod.CrtVerdict.VALID, crt_mod.CrtVerdict.REVOKED)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_ocsp_query(args) -> int:
    ks = load_keystore(args.keystore)
    ledger = load_ledger(args.ledger, ks, args.key)
    chain = resp_mod.make_key_chain(
        [resp_mod.ResponderKey("resp000", 0, max(args.now + 1, 1) * 2)],
        ks,
        args.key,
        random.Random(args.seed if args.seed is not None else 0),
    )
    responder = resp_mod.OcspResponder(ks, chain, ledger)
    request = resp_mod.make_request(args.serial, args.now, _rng(args.seed))
    response = responder.respond(request)
    if not resp_mod.verify_response(response, request, ks, chain):
        print("response verification failed", file=sys.stderr)
        return EXIT_FAIL
    if args.out:
        Path(args.out).write_bytes(response.to_bytes())
    print(response.status.value)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------

def _tradeoff_preset(seed: int) -> list[simkit.SimConfig]:
    """One comparable config per scheme at desk scale."""
    base = dict(
        seed=seed,
        horizon=60 * DAY,
        population=2000,
        n_clients=40,
        validation_rate=3.0,
        late_revoked_threshold=0,
    )
    return [
        simkit.SimConfig(scheme=simkit.Scheme.FULL_CRL, **base),
        simkit.SimConfig(
            scheme=simkit.Scheme.DELTA_CRL, delta_period=6 * HOUR, **base
        ),
        simkit.SimConfig(
            scheme=simkit.Scheme.SLIDING_DELTA,
            delta_period=3 * HOUR,
            window_length=21 * DAY,
            **base,
        ),
        simkit.SimConfig(scheme=simkit.Scheme.SEGMENTED, segments=8, **base),
        simkit.SimConfig(scheme=simkit.Scheme.CRS, **base),
        simkit.SimConfig(scheme=simkit.Scheme.CRT, **base),
        simkit.SimConfig(
            scheme=simkit.Scheme.WCR, wcr_window_size=3, wcr_clean_duration=12 * HOUR, **base
        ),
        simkit.SimConfig(scheme=simkit.Scheme.OCSP, **base),
        simkit.SimConfig(scheme=simkit.Scheme.NAIVE_SIGNED_STATUS, **base),
    ]


def cmd_sim(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.preset or args.compare:
        if args.preset:
            if args.preset != "paper-tradeoffs":
                raise InputError(f"unknown preset {args.preset!r}")
            configs = _tradeoff_preset(args.seed if args.seed is not None else 42)
        else:
            configs = []
            for path in args.compare:
                with _reading(path) as data:
                    configs.append(simkit.SimConfig.from_json_dict(data))
            if args.seed is not None:
                configs = [c.with_seed(args.seed) for c in configs]
        results = simkit.compare(configs)
        (out_dir / "comparison.csv").write_text(simkit.comparison_csv(results))
        for config, report in results:
            (out_dir / f"report_{config.scheme.value}.json").write_text(report.to_json() + "\n")
        print((out_dir / "comparison.csv").read_text().rstrip())
        return EXIT_OK

    if not args.config:
        raise InputError("one of --config, --compare, --preset is required")
    with _reading(args.config) as data:
        config = simkit.SimConfig.from_json_dict(data)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    report = simkit.run(config)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    (out_dir / "intervals.csv").write_text(simkit.interval_csv(report))
    row = report.summary_row()
    for key in sorted(row):
        print(f"{key}: {row[key]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _parent(flag: str, **options) -> argparse.ArgumentParser:
    """A parent parser holding one argument that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revokebench")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    keystore = _parent("--keystore", required=True)
    signer = argparse.ArgumentParser(add_help=False, parents=[keystore])  # the keystore and key
    signer.add_argument("--key", default="ca")
    serial = _parent("--serial", type=int, required=True)
    now = _parent("--now", type=int, required=True)
    out = _parent("--out", required=True)
    state = _parent("--state", required=True)
    seed = _parent("--seed", type=int)

    p = command("keygen", cmd_keygen, "register a signing key in a keystore file", keystore, seed)
    p.add_argument("--key-id", required=True)

    p = command("crl-issue", cmd_crl_issue, "issue a full or sliding-window CRL from a ledger",
                signer, now, out)
    p.add_argument("--ledger", required=True)
    p.add_argument("--base-period", type=int, default=DAY)
    p.add_argument("--delta-period", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--kind", choices=["full", "sliding"], default="full")

    p = command("crl-check", cmd_crl_check, "client-side status check over cached documents",
                signer, serial, now)
    p.add_argument("--doc", action="append", required=True, help="CRL .json file (repeatable)")

    p = command("crs-setup", cmd_crs_setup, "create chain secrets and the public anchor",
                state, serial, seed)
    p.add_argument("--periods", type=int, default=365)
    p.add_argument("--period-length", type=int, default=DAY)
    p.add_argument("--anchor-out", required=True)

    command("crs-revoke", cmd_crs_revoke, "mark a serial revoked in CA state", state, serial)

    p = command("crs-token", cmd_crs_token, "issue the day-i token for a serial",
                state, serial, out)
    p.add_argument("--period", type=int, required=True)

    p = command("crs-verify", cmd_crs_verify, "verify a token against an anchor")
    p.add_argument("--anchor", required=True)
    p.add_argument("--token", required=True)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--width", type=int, default=100)

    p = command("crt-build", cmd_crt_build, "build a revocation tree over a serial list",
                signer, now, out)
    p.add_argument("--revoked", required=True, help="JSON list of revoked serials")
    p.add_argument("--validity", type=int, default=DAY)

    p = command("crt-prove", cmd_crt_prove, "produce a proof for one serial", signer, serial, out)
    p.add_argument("--tree", required=True)

    p = command("crt-verify", cmd_crt_verify, "verify a proof and classify the serial",
                signer, serial, now)
    p.add_argument("--proof", required=True)

    p = command("ocsp-query", cmd_ocsp_query, "signed status query against a ledger",
                signer, serial, now, seed)
    p.add_argument("--ledger", required=True)
    p.add_argument("--out")

    p = command("sim", cmd_sim, "run the simulator or a scheme comparison")
    p.add_argument("--config", help="SimConfig JSON file")
    p.add_argument("--compare", nargs="+", help="two or more SimConfig JSON files")
    p.add_argument("--preset", help="named experiment preset (paper-tradeoffs)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # InputError and ConfigError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
