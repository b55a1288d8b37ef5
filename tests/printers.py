"""Printers for the parser round-trip tests: a proof tree and a universe back
to the text that `parse_proof` and `parse_universe` read.  The package never
prints either."""

from sepgame.syntax import (ProofNode, Universe, formula_to_text, perm_to_text,
                            program_to_text)


def proof_to_text(node: ProofNode, indent=0) -> str:
    pad = "  " * indent
    parts = [f"{pad}({node.tag}"]
    if len(node.ctx):
        ctx = ", ".join(f"{r}: {formula_to_text(j)}" for r, j in node.ctx.items())
        parts.append(f"{pad}  ctx: [{ctx}]")
    parts.append(f"{pad}  pre: {formula_to_text(node.pre)}")
    parts.append(f"{pad}  cmd: {program_to_text(node.cmd)}")
    parts.append(f"{pad}  post: {formula_to_text(node.post)}")
    for key in ("R", "inv"):
        if key in node.params:
            parts.append(f"{pad}  {key}: {formula_to_text(node.params[key])}")
    if "r" in node.params:
        parts.append(f"{pad}  r: {node.params['r']}")
    if "val" in node.params:
        val = ", ".join(f"{k} = {v}" for k, v in node.params["val"].items())
        parts.append(f"{pad}  val: [{val}]")
    for child in node.children:
        parts.append(proof_to_text(child, indent + 1))
    parts.append(f"{pad})")
    return "\n".join(parts)


def universe_to_text(u: Universe) -> str:
    lines = [
        "vars = " + ", ".join(u.variables),
        "locs = " + ", ".join(str(x) for x in u.locations),
        "vals = " + ", ".join(str(v) for v in u.values),
        "perms = " + ", ".join(perm_to_text(p) for p in u.perms),
        "locks = " + ", ".join(u.locks),
        f"maxlen = {u.maxlen}",
        f"env = {u.env_policy}",
    ]
    lines += [f"move = {pre} -> {post}" for pre, post in u.env_moves_text]
    return "\n".join(lines) + "\n"
