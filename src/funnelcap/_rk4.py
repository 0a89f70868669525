"""The generated RK4 kernel that runs ``simulator.simulate``'s whole sample
loop, apart from the scenario, monitor and CSV code of ``simulator``.

``advance(state, t_k, h_sub, m_k)`` takes a recording interval's m_k
sub-steps with every stage unrolled: the control law of
``cascade(...).u[-1]`` and the plant field of ``eval_dynamics``, term for
term and in the same order, so its states and its errors are bit-identical
to that loop's.  The one exception to the order: each term that reads only
the time (the envelopes, and y_d and d_i when inlined) is evaluated once per
distinct time, ahead of the stages that use it, so RK4's two half-step
stages share theirs; a math error in an inlined d_i can therefore surface
before an error of an earlier stage at the same time.  ``run`` sizes each
interval with ``funnel_value``'s arithmetic, calls ``advance`` once per
interval and records each sample from the same control-law snippet, so every
row is ``cascade``'s z, theta, u and psi bit for bit.  An oracle built by
the library (the pendulum and sine-chain fields, ``sine_signal``) carries
its expression text, which the kernel inlines in place of the call; any
other callable is called, and f_i and g_i get the state prefix as a tuple,
as ``spot_check_bounds`` passes it.  The source is built from n and fixed
library text only, compiled once per n and inlined texts and cached; no user
value is formatted into it.  Each scenario's constants and oracles reach it
through the fresh namespace it is exec'd into, which refuses to bind any
name twice.
"""

from __future__ import annotations

import functools
import math
import textwrap

from .controller import THETA_EPS, CascadeConfig
from .plant import _FUNCTIONS, DynamicsError, SystemSpec, _fill


# The kernel's source is built from per-stage snippets.  The control law
# divides stage i's error {z} by its envelope {psi} into {theta}, runs
# {on_clamp} ahead of a clamp and leaves stage i's output in u:
# cascade(...).u[-1], term for term.  The plant field writes stage i's
# derivative {k}: eval_dynamics, term for term, where each of {f}, {g} and
# {d} calls the slot's oracle or inlines the formula text it carries.
_CONTROL_LAW = """\
{theta} = {z} / {psi}
if {theta} > LIMIT:
{on_clamp}    {theta} = LIMIT
elif {theta} < -LIMIT:
{on_clamp}    {theta} = -LIMIT
u = -B{i} * atan(A{i} * tan(HALF_PI * {theta}))
"""
_ENVELOPE = "PQ{i} * exp(-MU{i} * {t}) + Q{i}"  # funnel_value's arithmetic
_FINITE_INPUT = 'if not isfinite(u):\n    raise ValueError(f"control input must be finite, got {u}")\n'
_PLANT_FIELD = """\
{k} = {f} + {g} * {drive} + {d}
if not isfinite({k}):
    raise DynamicsError({i}, {t}, {k})
"""

# The namespace key of a formula's constant: F2_a_g, D1_amp, Y_D_freq.  The
# slot prefix keeps it off every other key, and _kernel refuses a clash.
_CONSTANT_KEY = "{slot}_{name}"


def _slots(n: int) -> tuple[str, ...]:
    """The kernel's oracle slots: the reference, then f_i, g_i, d_i per stage."""
    return ("Y_D", *(f"{c}{i}" for i in range(1, n + 1) for c in "FGD"))


@functools.cache
def _kernel_code(n: int, formulas: tuple[tuple[str, str], ...]):
    """``advance``, ``record`` and ``run`` for cascade order n, compiled
    once per n and (slot, text) pairs of the inlined formulas; a slot not
    among them calls the oracle bound to its name.

    - advance(state, t_k, h_sub, m_k) takes m_k classic RK4 sub-steps of
      length h_sub from t_k, every stage unrolled, and returns the new state.
    - record(state, t, sats) returns sample t's table row and appends each
      clamp to sats as (t, stage, z / psi), in stage order.
    - run(table, state, steps, h, m, sats) integrates from sample 0's state
      in m_k sub-steps per interval and writes rows 1..steps as record
      does.
    """
    texts = dict(formulas)
    state = ", ".join(f"x{i}" for i in range(1, n + 1))
    stages = range(1, n + 1)

    def oracle(slot: str, arg: str, t: str, x: str) -> str:
        """The slot's value: its formula text inlined, else a call of its oracle."""
        if slot not in texts:
            return f"{slot}({arg})"
        inlined = _fill(texts[slot], t, lambda j: f"{x}{j}", lambda name: _CONSTANT_KEY.format(slot=slot, name=name))
        return f"({inlined})"

    def each(line: str) -> str:
        return "".join(line.format(i=i) for i in stages)

    def envelopes(t: str, tag: str = "") -> str:
        return "".join(f"psi{i}{tag} = {_ENVELOPE.format(i=i, t=t)}\n" for i in stages)

    def times(t: str, tag: str) -> str:
        """The terms of a right-hand side that read only the time t, named
        with tag: each envelope, y_d and each d_i that is inlined.  An
        oracle that is called stays in the right-hand side."""
        out = envelopes(t, tag) + (f"yd{tag} = {oracle('Y_D', t, t, 'x')}\n" if "Y_D" in texts else "")
        return out + "".join(f"d{i}{tag} = {oracle(f'D{i}', t, t, 'x')}\n" for i in stages if f"D{i}" in texts)

    def rhs(x: str, t: str, tag: str, k: str) -> str:
        """One right-hand side: inputs x1..xn at time t, whose time terms
        carry tag, derivatives into k1..kn."""
        xs = [f"{x}{i}" for i in stages] + ["u"]
        y_d = f"yd{tag}" if "Y_D" in texts else f"Y_D({t})"
        out = f"u = {y_d}\n"
        for i in stages:
            out += _CONTROL_LAW.format(theta="theta", z=f"({x}{i} - u)", psi=f"psi{i}{tag}", on_clamp="", i=i)
        out += _FINITE_INPUT
        for i in stages:
            if f"F{i}" not in texts or f"G{i}" not in texts:
                out += f"p = ({', '.join(xs[:i])},)\n"
            f, g = (oracle(f"{c}{i}", "p", t, x) for c in "FG")
            d = f"d{i}{tag}" if f"D{i}" in texts else f"D{i}({t})"
            out += _PLANT_FIELD.format(k=f"{k}{i}", f=f, g=g, drive=xs[i], d=d, i=i, t=t)
        return out

    def record(t: str) -> str:
        """Sample t's row from x1..xn and psi1..psin, left in row."""
        law = "".join(
            f"z{i} = x{i} - u\n"
            + _CONTROL_LAW.format(
                theta=f"theta{i}", z=f"z{i}", psi=f"psi{i}", on_clamp=f"    clamped(({t}, {i}, theta{i}))\n", i=i
            )
            + f"u{i} = u\n"
            for i in stages
        )
        columns = ", ".join(f"{c}{i}" for c in ("x", "z", "theta", "u", "psi") for i in stages)
        return f"y_d = u = {oracle('Y_D', t, t, 'x')}\n" + law + _FINITE_INPUT + f"row = ({t}, {columns}, y_d)\n"

    # The two half-step stages share t_h, so its time terms are evaluated once.
    rk4 = (
        "t_s = t_k + s * h_sub\nt_h = t_s + hh\nt_e = t_s + h_sub\n"
        + times("t_s", "_s")
        + rhs("x", "t_s", "_s", "a")
        + each("y{i} = x{i} + hh * a{i}\n")
        + times("t_h", "_h")
        + rhs("y", "t_h", "_h", "b")
        + each("y{i} = x{i} + hh * b{i}\n")
        + rhs("y", "t_h", "_h", "c")
        + each("y{i} = x{i} + h_sub * c{i}\n")
        + times("t_e", "_e")
        + rhs("y", "t_e", "_e", "e")
        + each("x{i} = x{i} + h6 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + e{i})\n")
        + each("if not isfinite(x{i}):\n    raise DynamicsError({i}, t_e, x{i})\n")
    )
    # m_k = max(1, ceil(m * max_i q_i / psi_i(t_k))) sizes the interval
    # ending at sample k; the tuple keeps max() valid for n = 1.
    sample = (
        "t = k * h\n"
        + envelopes("t")
        + f"m_k = max(1, ceil(m * max(({', '.join(f'Q{i} / psi{i}' for i in stages)},))))\n"
        + f"{state}, = advance([{state}], (k - 1) * h, h / m_k, m_k)\n"
        + record("t")
        + "table[k] = row\n"
    )
    source = (
        f"def advance(state, t_k, h_sub, m_k):\n    {state}, = state\n"
        + "    hh = 0.5 * h_sub\n    h6 = h_sub / 6.0\n    for s in range(m_k):\n"
        + textwrap.indent(rk4, "        ")
        + f"    return [{state}]\n"
        + f"def record(state, t, sats):\n    {state}, = state\n    clamped = sats.append\n"
        + textwrap.indent(envelopes("t") + record("t"), "    ")
        + "    return row\n"
        + f"def run(table, state, steps, h, m, sats):\n    {state}, = state\n    clamped = sats.append\n"
        + "    for k in range(1, steps + 1):\n"
        + textwrap.indent(sample, "        ")
    )
    return compile(source, f"<RK4 kernel, n={n}>", "exec")


def _kernel(config: CascadeConfig, reference, system: SystemSpec | None = None) -> dict:
    """Exec the kernel into a fresh namespace of one scenario's constants and
    oracles; returns the namespace, which holds the functions
    ``_kernel_code`` lists.  An oracle that carries a formula is inlined, its
    constants bound under ``_CONSTANT_KEY``; any other is bound under its
    slot name.  A key bound twice is refused with ValueError."""
    ns = {
        **_FUNCTIONS,
        "LIMIT": 1.0 - THETA_EPS,  # same guard band as clamp_theta
        "HALF_PI": 0.5 * math.pi,
        "exp": math.exp,
        "tan": math.tan,
        "atan": math.atan,
        "ceil": math.ceil,
        "isfinite": math.isfinite,
        "DynamicsError": DynamicsError,
    }

    def bind(key: str, value) -> None:
        if key in ns:
            raise ValueError(f"kernel name {key} is already bound")
        ns[key] = value

    for i, s in enumerate(config.stages, 1):
        bind(f"PQ{i}", s.funnel.p - s.funnel.q)
        bind(f"Q{i}", s.funnel.q)
        bind(f"MU{i}", s.funnel.mu)
        bind(f"A{i}", math.pi / (2.0 * s.c))
        bind(f"B{i}", 2.0 * s.v_bar / math.pi)
    oracles = [reference.y_d]
    if system is not None:
        oracles += [o for stage in zip(system.f, system.g, system.d) for o in stage]
    formulas = []
    for slot, oracle in zip(_slots(config.n), oracles):
        formula = getattr(oracle, "formula", None)
        if formula is None:
            bind(slot, oracle)
            continue
        text, constants = formula
        formulas.append((slot, text))
        for name, value in constants.items():
            bind(_CONSTANT_KEY.format(slot=slot, name=name), value)
    exec(_kernel_code(config.n, tuple(formulas)), ns)
    return ns
