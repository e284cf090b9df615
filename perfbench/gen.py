"""Seeded corpus generators for the benchmark workloads.

Each generator returns (records, truth). `records` are the corpus rows evalkit
reads; `truth` holds, per sample id, what the generator built into the sample:
whether the prediction is identical to the reference, whether it is valid code
(the expected compilation accuracy) and which entity literals the intent holds.

Two random streams build a corpus. The shape stream does not depend on the
seed: it fixes everything the cost of scoring depends on, namely instruction
templates, line counts, which operands share a register, literal widths, the
mix of edit kinds and the labeled share. The seed stream picks the concrete
register names (a permutation, so sharing is kept), literal values of the
fixed widths, which characters are edited, and the sample order. Every seed
therefore costs the same: the exact METEOR search on `shellcode-asm` is
heavy-tailed, and with independently drawn shapes its work varied by 5%
(quartile spread over median) between seeds of a 3000-sample corpus.
"""

from __future__ import annotations

import random
import re

from checks import punct_tokens

NL_MARKER = " \\n "

R32 = ("EAX", "EBX", "ECX", "EDX", "ESI", "EDI")
R8 = ("AL", "BL", "CL", "DL")
STRINGS4 = ("//sh", "/bin", "bash", "n/sh", "//nc", "/etc", "/tmp", "-vlp")

def _schedule(n: int, shares: list[tuple[object, float]], rng: random.Random) -> list:
    """n values, each present round(n * share) times, in shuffled order."""
    out: list = []
    for value, share in shares:
        out.extend([value] * round(n * share))
    out = (out + [shares[0][0]] * n)[:n]
    rng.shuffle(out)
    return out


class _Values:
    """Seed-drawn literals of shape-given widths, distinct within one sample."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _fresh(self, make) -> str:
        value = make()
        while value in self.used:
            value = make()
        self.used.add(value)
        return value

    def pick(self, options) -> str:
        return self._fresh(lambda: self.rng.choice(options))

    def dec(self, digits: int) -> str:
        return self._fresh(lambda: str(self.rng.randrange(10 ** (digits - 1), 10 ** digits)))

    def hex(self, digits: int) -> str:
        lo, hi = 16 ** (digits - 1), 16 ** digits
        return self._fresh(lambda: f"0x{self.rng.randrange(lo, hi):0{digits}x}")


# ---------------------------------------------------------------------------
# IA-32 instructions


def _instruction(shape: random.Random, values: _Values, regs, r8s, gas: bool):
    """One instruction: (code, intent clause, entity literals of the clause).

    `regs` and `r8s` are this sample's register names in seed-permuted order;
    the shape stream picks indices into them. NASM-style operands
    (`byte [ESI]`, the shellcode corpora's convention) unless `gas`, which
    gives GNU Intel syntax (`byte ptr [esi]`).
    """
    ptr = "byte ptr" if gas else "byte"
    ia, ib = shape.sample(range(len(regs)), 2)
    a, b = regs[ia], regs[ib]
    c8 = r8s[shape.randrange(len(r8s))]
    kind = shape.randrange(15)
    if kind in (8, 9, 12, 13):
        d = values.dec(shape.choice((1, 2, 2, 3)))
    if kind == 0:
        imm = values.hex(8)
        return f"mov {a}, {imm}", f"move {imm} into {a}", [imm, a]
    if kind == 1:
        return f"mov {a}, {b}", f"copy the contents of {b} into {a}", [b, a]
    if kind == 2:
        return f"xor {a}, {a}", f"zero out the {a} register", [a]
    if kind == 3:
        s = values.pick(STRINGS4)
        word = "0x" + "".join(f"{ord(ch):02x}" for ch in reversed(s))
        values.used.add(word)
        return f"push {word}", f"push the string '{s}' onto the stack", [f"'{s}'"]
    if kind == 4:
        return f"push {a}", f"save {a} on the stack", [a]
    if kind == 5:
        return f"pop {a}", f"pop the top of the stack into {a}", [a]
    if kind == 6:
        return f"inc {a}", f"increment {a} by one", [a]
    if kind == 7:
        return f"dec {a}", f"decrement the counter in {a}", [a]
    if kind == 8:
        return f"add {a}, {d}", f"add {d} to {a}", [d, a]
    if kind == 9:
        return f"sub {a}, {d}", f"subtract {d} from {a}", [d, a]
    if kind == 10:
        values.used.add("0x80")
        return "int 0x80", "invoke the kernel with interrupt 0x80", ["0x80"]
    if kind == 11:
        return f"mov {ptr} [{a}], {c8}", f"store {c8} in the byte pointed to by {a}", [c8, a]
    if kind == 12:
        imm = values.hex(2)
        return (f"cmp {ptr} [{a}+{d}], {imm}",
                f"compare the byte at {a} plus {d} with {imm}", [a, d, imm])
    if kind == 13:
        return f"lea {a}, [{b}+{d}]", f"load the address {b} plus {d} into {a}", [b, d, a]
    return f"xchg {a}, {b}", f"swap the values of {a} and {b}", [a, b]


def _substitute_operand(line: str, shape: random.Random, values: _Values, regs, r8s) -> str:
    """Replace one register or number with another of the same kind and width."""
    spots = list(re.finditer(r"\b(?:%s|0x[0-9a-f]+|\d+)\b" % "|".join(regs + r8s), line))
    m = spots[shape.randrange(len(spots))]
    old = m.group()
    if old in regs or old in r8s:
        pool = regs if old in regs else r8s
        new = pool[(pool.index(old) + 1 + shape.randrange(len(pool) - 1)) % len(pool)]
    elif old.startswith("0x"):
        new = values.hex(len(old) - 2)
    else:
        new = values.dec(len(old))
    return line[: m.start()] + new + line[m.end():]


# Mnemonic pairs with identical operand shapes, so the swapped line stays valid
# for the grammar and for the GNU assembler.
MNEMONIC_SWAPS = {"add": "sub", "sub": "add", "inc": "dec", "dec": "inc",
                  "xor": "and", "xchg": "mov", "push": "pop", "pop": "push"}

_MISSPELT = {"mov": "mvo", "push": "pussh", "pop": "ppo", "xor": "xro", "inc": "icn",
             "dec": "dce", "add": "dad", "sub": "sbu", "int": "itn", "cmp": "cpm",
             "lea": "lae", "xchg": "xhcg"}


def _break_line(line: str, shape: random.Random, gas: bool) -> str:
    """A line the checker must reject: an empty operand, or (for the GNU
    assembler, which knows the instruction set) a misspelt mnemonic."""
    op, _, rest = line.partition(" ")
    if gas and shape.random() < 0.5:
        return f"{_MISSPELT[op]} {rest}"
    if "," in rest:
        return f"{op} {rest.replace(',', ',,', 1)}"
    return f"{op} {rest},,"


def _asm_corpus(n: int, seed: int, name: str, gas: bool, lines_mix, kinds_mix, join: str):
    shape = random.Random(f"{name}/shape")
    rng = random.Random(f"{name}/{seed}")
    lines_per = _schedule(n, lines_mix, shape)
    kinds = _schedule(n, kinds_mix, shape)
    labeled = _schedule(n, [(True, 0.85), (False, 0.15)], shape)
    order = list(range(n))
    rng.shuffle(order)
    width = len(str(n - 1))
    records, truth = [None] * n, {}
    for k in range(n):
        values = _Values(rng)
        regs = tuple(rng.sample(R32, len(R32)))
        r8s = tuple(rng.sample(R8, len(R8)))
        if gas:
            regs, r8s = tuple(r.lower() for r in regs), tuple(r.lower() for r in r8s)
        instrs = [_instruction(shape, values, regs, r8s, gas) for _ in range(lines_per[k])]
        ref_lines = [code for code, _, _ in instrs]
        pred_lines = list(ref_lines)
        kind = kinds[k]
        i = shape.randrange(len(pred_lines))
        line = pred_lines[i]
        op, _, rest = line.partition(" ")
        if kind == "operand" or (kind == "mnemonic" and (
                op not in MNEMONIC_SWAPS or rest.startswith("0x"))):
            pred_lines[i] = _substitute_operand(line, shape, values, regs, r8s)
        elif kind == "mnemonic":
            pred_lines[i] = f"{MNEMONIC_SWAPS[op]} {rest}"
        elif kind == "drop":
            if len(pred_lines) > 1:
                del pred_lines[i]
            else:
                pred_lines.append(_instruction(shape, values, regs, r8s, gas)[0])
        elif kind == "broken":
            pred_lines[i] = _break_line(line, shape, gas)
        sid = f"{name}-{order[k]:0{width}d}"
        reference = join.join(ref_lines)
        prediction = join.join(pred_lines)
        record = {"id": sid, "intent": " and then ".join(c for _, c, _ in instrs),
                  "reference": reference, "prediction": prediction, "language": "assembly"}
        if labeled[k]:
            record["sc"] = int(kind == "exact")
        records[order[k]] = record
        truth[sid] = {"identical": kind == "exact", "valid": kind != "broken",
                      "literals": [lit for _, _, lits in instrs for lit in lits]}
    return records, truth


def shellcode_asm(n: int, seed: int):
    """1-3 NASM-style instructions per snippet, flattened with the literal marker."""
    return _asm_corpus(
        n, seed, "sc", gas=False,
        lines_mix=[(1, 1 / 3), (2, 1 / 3), (3, 1 / 3)],
        kinds_mix=[("exact", 0.40), ("operand", 0.20), ("mnemonic", 0.15),
                   ("drop", 0.10), ("broken", 0.15)],
        join=NL_MARKER,
    )


def asm_toolchain(n: int, seed: int):
    """Mostly single GNU Intel-syntax instructions, lines split by real newlines."""
    return _asm_corpus(
        n, seed, "as", gas=True,
        lines_mix=[(1, 0.75), (2, 0.20), (3, 0.05)],
        kinds_mix=[("exact", 0.40), ("operand", 0.25), ("mnemonic", 0.10),
                   ("broken", 0.25)],
        join="\n",
    )


# ---------------------------------------------------------------------------
# Python-like exploit programs


def _py_block(shape: random.Random) -> list[str]:
    var = shape.choice(("buf", "payload", "data", "junk", "chunk"))
    kind = shape.randrange(9)
    if kind == 0:
        return [f"for i in range(0, len({var}), {shape.choice((8, 16, 32, 64))}):",
                f"    s.send({var}[i:i + 16])"]
    if kind == 1:
        return ["resp = s.recv(1024)",
                f"if resp.startswith(b'{shape.choice((220, 230, 331))}'):",
                "    print('[+] banner: %s' % resp.decode('utf-8', 'replace'))"]
    if kind == 2:
        return [f"{var} = b'\\x90' * {shape.randrange(8, 64)} + shellcode + b'\\xcc' * (len(pad) - 1)"]
    if kind == 3:
        return ["try:",
                f"    s.send(b'USER anonymous\\r\\n' + {var} + b'\\r\\n')",
                "except socket.error as err:",
                "    print('[-] send failed: {}'.format(err))"]
    if kind == 4:
        return [f"offset = {shape.randrange(100, 3000)}",
                f"{var} = {var}[:offset] + struct.pack('<I', jmp_esp) + {var}[offset + 4:]"]
    if kind == 5:
        return [f"while len({var}) < total:",
                f"    {var} += s.recv(total - len({var}))"]
    if kind == 6:
        return ["with open(sys.argv[1], 'wb') as fh:",
                f"    fh.write({var} + b'\\n' * {shape.randrange(1, 9)})"]
    if kind == 7:
        return [f"encoded = bytes([b ^ 0x{shape.randrange(16, 256):02x} for b in shellcode])",
                "print('[*] encoded length: %d' % len(encoded))"]
    return [f"s.settimeout({shape.randrange(2, 30)}.0)", "s.close()"]


_WORD = re.compile(r"\w")


def _safe_positions(text: str) -> list[int]:
    """Indices of word characters outside each line's first word.

    Replacing such a character with another letter or digit keeps the bracket,
    quote and block-colon structure that the python-like grammar checks, cannot
    turn a line's head into a block keyword, and keeps every token a token.
    """
    positions = []
    start = 0
    for line in text.split("\n"):
        head = re.match(r"\s*\w*", line).end()
        positions.extend(start + p for p in range(head, len(line)) if _WORD.match(line[p]))
        start += len(line) + 1
    return positions


def python_multiline(n: int, seed: int):
    """Python-like exploit programs of 100-300 METEOR tokens with character edits."""
    shape = random.Random("py/shape")
    rng = random.Random(f"py/{seed}")
    targets = [100 + (200 * k + 100) // n for k in range(n)]
    shape.shuffle(targets)
    kinds = _schedule(n, [("exact", 0.15), ("edited", 0.60), ("broken", 0.25)], shape)
    edit_counts = [1 + k % 24 for k in range(n)]
    shape.shuffle(edit_counts)
    labeled = _schedule(n, [(True, 0.85), (False, 0.15)], shape)
    order = list(range(n))
    rng.shuffle(order)
    width = len(str(n - 1))
    records, truth = [None] * n, {}
    for k in range(n):
        values = _Values(rng)
        host = "'10." + ".".join(values.dec(shape.choice((2, 3))) for _ in range(3)) + "'"
        port, size, ret = values.dec(shape.choice((4, 5))), values.dec(shape.choice((3, 4))), values.hex(8)
        lines = [
            "import socket, struct, sys",
            "s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)",
            f"s.connect(({host}, {port}))",
            f"buf = b'A' * {size} + struct.pack('<I', {ret})",
        ]
        while len(punct_tokens("\n".join(lines))) < targets[k]:
            block = _py_block(shape)
            if len(lines) + len(block) > 15:
                break
            lines.extend(block)
        reference = "\n".join(lines)
        intent = (f"connect to {host} on port {port}, fill the buffer with {size} bytes "
                  f"and overwrite the return address with {ret}")
        prediction = reference
        kind = kinds[k]
        if kind != "exact":
            chars = list(reference)
            for p in rng.sample(_safe_positions(reference), edit_counts[k]):
                chars[p] = rng.choice([c for c in "etaoinsrd0123" if c != chars[p]])
            prediction = "".join(chars)
        if kind == "broken":
            # Drop a block head's colon or a closing parenthesis.
            heads = [i for i, line in enumerate(lines) if line.endswith(":")]
            if heads and shape.random() < 0.5:
                pred_lines = prediction.split("\n")
                i = heads[rng.randrange(len(heads))]
                pred_lines[i] = pred_lines[i][:-1]
                prediction = "\n".join(pred_lines)
            else:
                closers = [p for p, ch in enumerate(prediction) if ch == ")"]
                p = closers[rng.randrange(len(closers))]
                prediction = prediction[:p] + prediction[p + 1:]
        sid = f"py-{order[k]:0{width}d}"
        record = {"id": sid, "intent": intent, "reference": reference,
                  "prediction": prediction, "language": "python-like"}
        if labeled[k]:
            record["sc"] = int(kind == "exact" or (kind == "edited" and edit_counts[k] <= 3))
        records[order[k]] = record
        truth[sid] = {"identical": kind == "exact", "valid": kind != "broken",
                      "literals": [host, port, size, ret]}
    return records, truth


GENERATORS = {
    "shellcode-asm": shellcode_asm,
    "python-multiline": python_multiline,
    "asm-toolchain": asm_toolchain,
}
