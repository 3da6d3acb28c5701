"""Command-line entry point.

Subcommands compose the pipeline: ``synth`` writes a synthetic scene,
``detect`` runs one detector on a cube, ``eval`` scores saved maps against
a mask, and ``compare`` chains all three to produce a method-comparison
table.  Every run is deterministic given its flags and seed.  ``synth`` and
``compare`` write ``manifest.json`` into their output directory, and
``detect`` writes ``<method>.manifest.json`` beside ``<method>.csv``, so
each file records the configuration that made it.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import cube as hio
from .config import DetectorConfig, preset_config
from .detector import METHODS, check_methods, detect
from .hierdict import WindowSpec
from .metrics import check_method_names, write_comparison
from .metrics import compare as compare_maps
from .synth import PRESETS, generate

log = logging.getLogger("hsidet")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    # Each dest is a DetectorConfig field name, except owr/iwr (its window).
    p.add_argument("--lambda", dest="lam", type=float, help="L1 weight (default 0.1)")
    p.add_argument("--sparsity", dest="k", type=int, help="sparsity cap k (default 5)")
    p.add_argument("--gamma", type=float, help="background-score weight (default 0.3)")
    p.add_argument("--owr", type=int, help="outer window side (odd)")
    p.add_argument("--iwr", type=int, help="inner window side (odd)")
    p.add_argument("--target-atoms", dest="n_target_atoms", type=int,
                   help="global target dictionary atoms, at most one per training sample")
    p.add_argument("--bg-atoms", dest="n_bg_atoms", type=int,
                   help="global background dictionary atoms, at most one per training sample")
    p.add_argument("--train-targets", dest="n_target_train", type=int,
                   help="target training sample count")
    p.add_argument("--bg-fraction", type=float, help="background training fraction")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--threads", type=int,
                   help="accepted (>= 1) but unused: changes neither the work nor the output")


def _config_from_args(args, base: DetectorConfig) -> DetectorConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(base)
                 if getattr(args, f.name, None) is not None}
    if args.owr is not None or args.iwr is not None:
        overrides["window"] = WindowSpec(
            base.window.outer if args.owr is None else args.owr,
            base.window.inner if args.iwr is None else args.iwr,
        )
    return base.with_overrides(**overrides)


def _write_manifest(path: str, payload: dict) -> None:
    payload = {**payload, "timestamp": datetime.datetime.now().isoformat()}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_mask(path: str) -> hio.GroundTruthMask:
    """Load a mask that a ROC can score: one with both a target and a
    background pixel, or ``FormatError`` naming the file."""
    mask = hio.load_mask(path)
    if mask.n_targets in (0, mask.labels.size):
        raise hio.FormatError(
            f"{path}: mask must contain at least one target and one background pixel")
    return mask


def _load_inputs(cube_path: str, signature_path: str, mask_path: str | None = None):
    """Load a cube, its target signature and optionally its mask; a signature
    or mask that does not fit the cube, or a mask without a target or a
    background pixel, raises ``FormatError`` naming the files.  Returns
    (cube, signature, mask or None)."""
    cube = hio.load_cube(cube_path)
    signature = hio.load_signature(signature_path)
    if signature.shape != (cube.bands,):
        raise hio.FormatError(f"{signature_path}: {signature.size} bands do not match "
                              f"the {cube.bands} bands of {cube_path}")
    if mask_path is None:
        return cube, signature, None
    mask = _load_mask(mask_path)
    _check_fits(mask_path, mask.labels.shape, cube_path, (cube.height, cube.width))
    return cube, signature, mask


def _detect_file(cube_path: str, cube, signature, config, methods) -> dict:
    """``detect`` on a cube loaded from ``cube_path``.  A stage's
    ``ValueError`` or ``LinAlgError`` is raised again as the same type with
    that path in front; the method list is checked first, so its errors do
    not name the cube."""
    check_methods(methods)
    try:
        return detect(cube, signature, config, methods)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise type(exc)(f"{cube_path}: {exc}") from exc


def _check_fits(path: str, shape: tuple, ref_path: str, ref_shape: tuple) -> None:
    if shape != ref_shape:
        raise hio.FormatError(f"{path}: (height, width) {shape} does not match "
                              f"{ref_shape} of {ref_path}")


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
    _write_manifest(os.path.join(args.out, "manifest.json"), {
        "command": "synth", "preset": args.preset, "spec": spec.__dict__, "outputs": paths})
    log.info("wrote scene to %s", args.out)
    return 0


def cmd_detect(args) -> int:
    config = _config_from_args(args, DetectorConfig())
    cube, signature, _ = _load_inputs(args.cube, args.signature)
    smap = _detect_file(args.cube, cube, signature, config, [args.method])[args.method]
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, args.method)
    hio.save_scoremap(smap, base)
    _write_manifest(base + ".manifest.json", {
        "command": "detect", "method": args.method, "config": config.to_dict(),
        "inputs": {"cube": args.cube, "signature": args.signature},
        "outputs": {"scores": base + ".csv"},
    })
    log.info("wrote %s score map to %s", args.method, base)
    return 0


def cmd_eval(args) -> int:
    # Names are checked before any map is read or any file is written.
    entries = [entry.split("=", 1) if "=" in entry
               else (os.path.splitext(os.path.basename(entry))[0], entry)
               for entry in args.scores]
    check_method_names([name for name, _ in entries])
    truth = _load_mask(args.mask)
    named = []
    for name, path in entries:
        smap = hio.load_scoremap(path)
        _check_fits(path, smap.values.shape, args.mask, truth.labels.shape)
        named.append((name, smap))
    rows = compare_maps(named, truth)
    write_comparison(rows, args.out)
    for name, value, _ in rows:
        print(f"{name},{value:.6f}")
    return 0


def cmd_compare(args) -> int:
    # Every map and AUC is computed before --out is created, so a failure
    # writes nothing.
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    config = _config_from_args(
        args, preset_config(args.preset) if args.preset else DetectorConfig())
    log.info("running %s", ",".join(methods))
    if args.preset:
        cube, mask, signature = generate(PRESETS[args.preset])
        maps = detect(cube, signature, config, methods)
    else:
        cube, signature, mask = _load_inputs(args.cube, args.signature, args.mask)
        maps = _detect_file(args.cube, cube, signature, config, methods)
    rows = compare_maps(list(maps.items()), mask)
    out = args.out
    os.makedirs(out, exist_ok=True)
    if args.preset:
        scene_paths = _write_scene(out, cube, mask, signature)
    else:
        scene_paths = {"cube": args.cube, "mask": args.mask, "signature": args.signature}
    for m, smap in maps.items():
        hio.save_scoremap(smap, os.path.join(out, m))
    write_comparison(rows, out)
    _write_manifest(os.path.join(out, "manifest.json"), {
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
    level = os.environ.get("HSI_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: HSI_LOG={level!r} is not a log level; use one of "
              "DEBUG, INFO, WARNING, ERROR, CRITICAL", file=sys.stderr)
        return 2
    logging.basicConfig(
        level=level,
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
        log.debug("%s failed", args.command, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
