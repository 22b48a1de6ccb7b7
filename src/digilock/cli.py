"""Operator CLI: provision a locker, register users, run access sessions,
manage vault documents, and execute named attack scenarios.

Secrets travel via files, never argv; the secret phrase is the exception
(low sensitivity next to the keys) and is documented as argv-visible.

`access` and `vault` open the locker with `protocol.run_session`, the
direct loop over the user and locker transitions; only `simulate` imports
the simulator (`sim`). Every command waits the one ack deadline,
`protocol.DEFAULT_TIMEOUT_MS`, and none takes an option to change it.
`register`, `access` and `vault` each make one registry call
(`LockerStore.register` or `LockerStore.lookup`), so a command opens one
SQLite connection and closes it.

Exit codes are a stable contract:
  0 success, 1 usage error, 2 already provisioned, 3 duplicate user,
  4 bad user key, 5 bad provider key, 6 session not open,
  7 unknown document, 8 other protocol or store failure.

`main(argv)` can be called repeatedly in one process. The argument parser
is built on the first call, not at import, and is shared by every later
call; nothing mutates it after it is built, and every call parses into a
fresh namespace, so no option carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import protocol, store
from .crypto import Digest, SecretKey
from .protocol import FailureReason, LockerPhase, LockerSession

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ALREADY_PROVISIONED = 2
EXIT_DUPLICATE_USER = 3
EXIT_BAD_USER_KEY = 4
EXIT_BAD_PROVIDER_KEY = 5
EXIT_SESSION_NOT_OPEN = 6
EXIT_UNKNOWN_DOCUMENT = 7
EXIT_FAILURE = 8

STORE_ENV_VAR = "DIGILOCK_STORE"

_FAILURE_EXITS = {
    FailureReason.BAD_USER_KEY: EXIT_BAD_USER_KEY,
    FailureReason.BAD_PROVIDER_KEY: EXIT_BAD_PROVIDER_KEY,
}

# (exception, exit code) for an error a command raises; the first row
# the error is an instance of names the code
_ERROR_EXITS = (
    (store.AlreadyProvisioned, EXIT_ALREADY_PROVISIONED),
    (store.DuplicateUser, EXIT_DUPLICATE_USER),
    (store.SessionNotOpen, EXIT_SESSION_NOT_OPEN),
    (store.UnknownDocument, EXIT_UNKNOWN_DOCUMENT),
    (store.StoreError, EXIT_FAILURE),
    (protocol.ProtocolError, EXIT_FAILURE),
    (OSError, EXIT_FAILURE),
    (ValueError, EXIT_FAILURE),
)


def _read_key_file(path: str) -> SecretKey:
    raw = Path(path).read_bytes()
    return SecretKey(raw)


def _store_path(args: argparse.Namespace) -> Path:
    if args.store:
        return Path(args.store)
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env)
    print(f"error: --store or ${STORE_ENV_VAR} is required", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.output == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text)


def cmd_provision(args: argparse.Namespace) -> int:
    locker_store = store.LockerStore(_store_path(args))
    provider_key = _read_key_file(args.provider_key_file)
    registry = locker_store.provision(provider_key)
    _emit(
        args,
        registry.h_r.hex(),
        {"h_r": registry.h_r.hex(), "store": str(locker_store.root)},
    )
    return EXIT_OK


def cmd_register(args: argparse.Namespace) -> int:
    locker_store = store.LockerStore(_store_path(args))
    key = _read_key_file(args.key_file)
    locker_store.register(args.user, key, args.phrase)
    _emit(args, f"registered {args.user}", {"registered": args.user})
    return EXIT_OK


def _run_local_access(
    args: argparse.Namespace, locker_store: store.LockerStore
) -> tuple[Digest | None, LockerSession | None, protocol.UserSession]:
    """Run one access session; returns L and the locker's session (both None
    without a record) and the user agent's session."""
    # an id or phrase the wire cannot carry is refused before the store is read
    # (exit 8); an unknown id gets a wrong key's exit 4, so ids cannot be probed
    protocol.user_id_bytes(args.user)
    protocol.phrase_bytes(args.phrase)
    h_r, record = locker_store.lookup(args.user)
    key = _read_key_file(args.key_file)
    provider_key = _read_key_file(args.provider_key_file)
    locker, user, _ = protocol.run_session(
        record, h_r, args.user, key, args.phrase, provider_key
    )
    key_l = None if record is None else protocol.locker_key(record.d_u, h_r)
    return key_l, locker, user


def _access_exit(
    locker: LockerSession | None, user: protocol.UserSession, args: argparse.Namespace
) -> int:
    if locker is not None and locker.phase is LockerPhase.OPEN:
        _emit(args, "OPEN", {"locker_opened": True, "failure_reason": None})
        return EXIT_OK
    # a session that did not open failed the user agent's, with the reason the
    # locker's error named or its own (a wrong phrase the locker sees as a timeout)
    reason = user.failure.value
    payload = {"locker_opened": False, "failure_reason": reason}
    _emit(args, f"DENIED ({reason})", payload)
    return _FAILURE_EXITS.get(user.failure, EXIT_FAILURE)


def cmd_access(args: argparse.Namespace) -> int:
    _, locker, user = _run_local_access(args, store.LockerStore(_store_path(args)))
    return _access_exit(locker, user, args)


def cmd_vault(args: argparse.Namespace) -> int:
    locker_store = store.LockerStore(_store_path(args))
    key_l, session, user = _run_local_access(args, locker_store)
    if session is None or session.phase is not LockerPhase.OPEN:
        return _access_exit(session, user, args)
    if args.vault_op == "put":
        doc = Path(args.file).read_bytes()
        locker_store.vault_put(args.user, args.name, doc, key_l, session)
        _emit(args, f"stored {args.name}", {"stored": args.name})
    elif args.vault_op == "get":
        doc = locker_store.vault_get(args.user, args.name, key_l, session)
        if args.out:
            Path(args.out).write_bytes(doc)
        else:
            buffer = getattr(sys.stdout, "buffer", None)
            if buffer is None:
                print("error: stdout takes no bytes here; write the document "
                      "with --out FILE", file=sys.stderr)
                return EXIT_FAILURE
            buffer.write(doc)
            buffer.flush()
    else:
        names = locker_store.vault_list(args.user, session)
        _emit(args, "\n".join(names), {"documents": names})
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import sim  # imported here so the other commands never load it

    try:
        spec = sim.ScenarioSpec(scenario=args.scenario, seed=args.seed, variant=args.variant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outcome, trace = sim.run_scenario(spec)
    if args.trace_out:
        Path(args.trace_out).write_text(trace.to_jsonl(), encoding="utf-8")
    matched = sim.outcome_matches_expectation(spec, outcome)
    verdict = "as-expected" if matched else "UNEXPECTED"
    _emit(
        args,
        f"{spec.scenario}: locker_opened={outcome.locker_opened} "
        f"failure={outcome.failure_reason} [{verdict}]",
        {"spec": spec.to_json(), "outcome": outcome.to_json(), "matched": matched},
    )
    return EXIT_OK if matched else EXIT_FAILURE


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract wants 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="digilock",
        description="Dual-key digital locker: store operations and attack simulations.",
    )
    parser.add_argument(
        "--output", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common_store = argparse.ArgumentParser(add_help=False)
    common_store.add_argument(
        "--store", default=None,
        help=f"store directory (default: ${STORE_ENV_VAR})",
    )

    p = sub.add_parser("provision", parents=[common_store],
                       help="create a registry from the provider master key")
    p.add_argument("--provider-key-file", required=True)

    p = sub.add_parser("register", parents=[common_store],
                       help="register a user with a key file and secret phrase")
    p.add_argument("--user", required=True)
    p.add_argument("--key-file", required=True)
    p.add_argument("--phrase", required=True)

    access_args = argparse.ArgumentParser(add_help=False)
    access_args.add_argument("--user", required=True)
    access_args.add_argument("--key-file", required=True)
    access_args.add_argument("--provider-key-file", required=True)
    access_args.add_argument("--phrase", required=True)

    p = sub.add_parser("access", parents=[common_store, access_args],
                       help="run a full locker access session")

    p = sub.add_parser("vault", parents=[common_store, access_args],
                       help="access the locker, then run one vault operation")
    p.add_argument("vault_op", choices=("put", "get", "list"))
    p.add_argument("--name", help="document name (put/get)")
    p.add_argument("--file", help="input file (put)")
    p.add_argument("--out", help="output file (get; default stdout)")

    p = sub.add_parser("simulate", help="run a named scenario in memory")
    p.add_argument("--scenario", required=True, help="scenario name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--variant", default=None,
        help="tamper target: prf-field | challenge-body | ack-digest",
    )
    p.add_argument("--trace-out", default=None, help="write JSON-lines trace here")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "vault":
        if args.vault_op in ("put", "get") and not args.name:
            parser.error("vault put/get requires --name")
        if args.vault_op == "put" and not args.file:
            parser.error("vault put requires --file")
    # looked up per call, not bound into the shared parser, so a command
    # function patched or wrapped after the first call is the one that runs
    command = {
        "provision": cmd_provision, "register": cmd_register, "access": cmd_access,
        "vault": cmd_vault, "simulate": cmd_simulate,
    }[args.command]
    try:
        return command(args)
    except tuple(kind for kind, _ in _ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
