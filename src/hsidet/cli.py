"""Command-line entry point.

Subcommands compose the pipeline: ``synth`` writes a synthetic scene,
``detect`` runs one detector on a cube, ``eval`` scores saved maps against
a mask, and ``compare`` chains all three to produce a method-comparison
table.  Every run is deterministic given its flags and seed, and a
manifest JSON is written next to the outputs for exact replay.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys

from . import cube as hio
from .config import DetectorConfig, preset_config
from .detector import METHODS, detect
from .hierdict import WindowSpec
from .metrics import compare as compare_maps
from .metrics import write_comparison
from .synth import PRESETS, generate

log = logging.getLogger("hsidet")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, help="L1 weight (default 0.1)")
    p.add_argument("--sparsity", type=int, help="sparsity cap k (default 5)")
    p.add_argument("--gamma", type=float, help="background-score weight (default 0.3)")
    p.add_argument("--owr", type=int, help="outer window side (odd)")
    p.add_argument("--iwr", type=int, help="inner window side (odd)")
    p.add_argument("--target-atoms", type=int, help="global target dictionary atoms")
    p.add_argument("--bg-atoms", type=int, help="global background dictionary atoms")
    p.add_argument("--train-targets", type=int, help="target training sample count")
    p.add_argument("--bg-fraction", type=float, help="background training fraction")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--threads", type=int,
                   help="accepted (>= 1) but unused: changes neither the work nor the output")
    p.add_argument("--orientation", choices=("flip_target", "flip_both", "literal"))


def _config_from_args(args, base: DetectorConfig) -> DetectorConfig:
    overrides = {}
    for flag, field in (
        ("lam", "lam"), ("sparsity", "k"), ("gamma", "gamma"),
        ("target_atoms", "n_target_atoms"), ("bg_atoms", "n_bg_atoms"),
        ("train_targets", "n_target_train"), ("bg_fraction", "bg_fraction"),
        ("seed", "seed"), ("threads", "threads"), ("orientation", "orientation"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    owr = getattr(args, "owr", None)
    iwr = getattr(args, "iwr", None)
    if owr is not None or iwr is not None:
        overrides["window"] = WindowSpec(
            owr if owr is not None else base.window.outer,
            iwr if iwr is not None else base.window.inner,
        )
    return base.with_overrides(**overrides)


def _write_manifest(out_dir: str, payload: dict) -> None:
    payload = {**payload, "timestamp": datetime.datetime.now().isoformat()}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_scene(out_dir: str, cube, mask, signature) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "cube": os.path.join(out_dir, "scene.hdr"),
        "mask": os.path.join(out_dir, "scene.mask"),
        "signature": os.path.join(out_dir, "scene.sig"),
    }
    hio.save_cube(cube, paths["cube"])
    hio.save_mask(mask, paths["mask"])
    hio.save_signature(signature, paths["signature"])
    return paths


def cmd_synth(args) -> int:
    spec = PRESETS[args.preset]
    if args.seed is not None:
        spec = type(spec)(**{**spec.__dict__, "seed": args.seed})
    cube, mask, signature = generate(spec)
    paths = _write_scene(args.out, cube, mask, signature)
    _write_manifest(args.out, {"command": "synth", "preset": args.preset,
                               "spec": spec.__dict__, "outputs": paths})
    log.info("wrote scene to %s", args.out)
    return 0


def cmd_detect(args) -> int:
    cube = hio.load_cube(args.cube)
    signature = hio.load_signature(args.signature)
    config = _config_from_args(args, DetectorConfig())
    smap = detect(cube, signature, config, [args.method])[args.method]
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, args.method)
    hio.save_scoremap(smap, base)
    _write_manifest(args.out, {
        "command": "detect", "method": args.method, "config": config.to_dict(),
        "inputs": {"cube": args.cube, "signature": args.signature},
        "outputs": {"scores": base + ".f32", "scores_csv": base + ".csv"},
    })
    log.info("wrote %s score map to %s", args.method, base)
    return 0


def cmd_eval(args) -> int:
    # Each name becomes an auc.csv field and a roc_<name>.csv file name, so
    # names are checked before any map is read or any file is written.
    paths = {}
    for entry in args.scores:
        if "=" in entry:
            name, path = entry.split("=", 1)
        else:
            name = os.path.splitext(os.path.basename(entry))[0]
            path = entry
        if not name or "," in name or "/" in name:
            raise ValueError(f"score map name {name!r} is empty or contains ',' or '/'")
        if name in paths:
            raise ValueError(f"score map name {name!r} is given more than once")
        paths[name] = path
    truth = hio.load_mask(args.mask)
    named = [(name, hio.load_scoremap(path)) for name, path in paths.items()]
    rows = compare_maps(named, truth)
    write_comparison(rows, args.out)
    for name, value, _ in rows:
        print(f"{name},{value:.6f}")
    return 0


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} (choose from {','.join(METHODS)})")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is listed more than once")
    out = args.out
    os.makedirs(out, exist_ok=True)
    if args.preset:
        cube, mask, signature = generate(PRESETS[args.preset])
        scene_paths = _write_scene(out, cube, mask, signature)
        base_config = preset_config(args.preset)
    else:
        cube = hio.load_cube(args.cube)
        mask = hio.load_mask(args.mask)
        signature = hio.load_signature(args.signature)
        scene_paths = {"cube": args.cube, "mask": args.mask, "signature": args.signature}
        base_config = DetectorConfig()
    config = _config_from_args(args, base_config)

    log.info("running %s", ",".join(methods))
    maps = detect(cube, signature, config, methods)
    for m, smap in maps.items():
        hio.save_scoremap(smap, os.path.join(out, m))
    rows = compare_maps(list(maps.items()), mask)
    write_comparison(rows, out)
    _write_manifest(out, {
        "command": "compare", "preset": args.preset, "methods": methods,
        "config": config.to_dict(), "inputs": scene_paths,
    })
    for name, value, _ in rows:
        print(f"{name},{value:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsidet",
        description="Hyperspectral target detection with hierarchical sparse "
        "representation and weighted score fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--seed", type=int, help="override the preset seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="run one detector on a cube")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--cube", required=True, help="cube header (.hdr) path")
    p.add_argument("--signature", required=True, help="target signature CSV")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score saved maps against a mask")
    p.add_argument("--scores", nargs="+", required=True,
                   help="score map paths, optionally name=path")
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="synthesize, detect with several methods, evaluate")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--cube", help="cube header path (instead of --preset)")
    p.add_argument("--signature")
    p.add_argument("--mask")
    p.add_argument("--methods", default="cem,ace,std,shr,wshr")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("HSI_LOG", "WARNING").upper(),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        files = (args.cube, args.signature, args.mask)
        if args.preset and any(files):
            parser.error("compare takes --preset or --cube/--signature/--mask, not both")
        if not args.preset and not all(files):
            parser.error("compare requires --preset or --cube/--signature/--mask")
    try:
        return args.func(args)
    except Exception as exc:  # pipeline failure -> diagnostic + exit 1
        log.error("%s", exc)
        log.debug("%s failed", args.command, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
