"""The -h text, which `hfgenus.cli._parse` imports only when it reads -h or
--help, so no other job compiles it."""

from __future__ import annotations

from ..cli import _HELP, _TABLE


def help_text(command) -> str:
    """The -h text: one command's flags, or the commands."""
    text, flags = _TABLE[command][1:] if command else (
        "H-functions, genus regions, 4-genus bounds, d-invariants and cables of L-space links",
        {name: (bool, text) for name, (_, text, _) in _TABLE.items()})
    out = f"usage: hfgenus {command or 'COMMAND'} [FLAG ...]\n\n{text}\n\n"
    for flag, (kind, text) in {**flags, **_HELP}.items():
        if kind is not bool:
            flag += " " + ("INT" if kind is int else kind if isinstance(kind, str) else
                           "|".join(kind))
        out += f"  {flag:<26}  {text}\n"
    return out
