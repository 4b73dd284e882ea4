"""Synthetic DEBS 2013 Grand Challenge soccer trace.

The paper draws event *values* from the DEBS 2013 dataset [53], collected
by a real-time locating system on a soccer field.  The dataset itself is
not redistributable here, so this module synthesizes an equivalent trace:
sensors attached to players and the ball report at the sensor
frequencies described in the challenge (players 200 Hz, ball 2 kHz),
and the emitted *value* is the sensor's speed —
statistically similar to the |v| column of the original dataset.

The substitution is sound because the evaluation uses the dataset only as
a value column replayed from different offsets; all windowing behaviour
depends on counts and generated timestamps (see DESIGN.md Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Sensor frequencies (Hz) from the DEBS 2013 setup.
PLAYER_SENSOR_HZ = 200
BALL_SENSOR_HZ = 2_000


@dataclass(frozen=True)
class Sensor:
    """One locating-system sensor (a player's leg or the ball)."""

    sensor_id: int
    kind: str  # "player" or "ball"
    frequency_hz: int


def default_sensors(n_players: int = 16) -> list[Sensor]:
    """The default sensor population: players' leg sensors plus one ball."""
    sensors = [Sensor(i, "player", PLAYER_SENSOR_HZ)
               for i in range(n_players)]
    sensors.append(Sensor(n_players, "ball", BALL_SENSOR_HZ))
    return sensors


class SoccerTraceGenerator:
    """A :class:`~repro.streams.generator.ValueSource` with soccer dynamics.

    Speed follows a bounded random walk; the produced value is the
    instantaneous speed in m/s (players bounded near sprint
    speed, the ball substantially faster), matching the value magnitudes
    of the original trace.
    """

    #: Max plausible speeds in m/s used to clip the random walk.
    MAX_PLAYER_SPEED = 12.0
    MAX_BALL_SPEED = 42.0

    def __init__(self, sensor: Sensor = None, seed: int = 0):
        self.sensor = sensor or Sensor(0, "player", PLAYER_SENSOR_HZ)
        if self.sensor.kind not in ("player", "ball"):
            raise ConfigurationError(
                f"unknown sensor kind {self.sensor.kind!r}")
        self._rng = np.random.default_rng(seed)
        self._speed = 0.0
        self._max_speed = (self.MAX_BALL_SPEED if self.sensor.kind == "ball"
                           else self.MAX_PLAYER_SPEED)
        # Acceleration noise scale: the ball changes speed far more
        # abruptly than a running player.
        self._accel_std = 4.0 if self.sensor.kind == "ball" else 0.8

    def values(self, n: int, rng: np.random.Generator = None) -> np.ndarray:
        """Produce ``n`` speed readings (m/s) continuing the walk."""
        rng = rng or self._rng
        accel = rng.normal(0.0, self._accel_std, size=n)
        speeds = np.empty(n, dtype=np.float64)
        speed = self._speed
        # Ornstein-Uhlenbeck-style pull toward rest keeps speeds bounded
        # and produces the bursty sprint/idle pattern of the real trace.
        for i in range(n):
            speed = 0.98 * speed + accel[i]
            if speed < 0.0:
                speed = -speed
            if speed > self._max_speed:
                speed = 2 * self._max_speed - speed
            speeds[i] = speed
        self._speed = speed
        return speeds


def replay_dataset(n: int, seed: int = 0, n_sensors: int = 4) -> np.ndarray:
    """Materialize a reusable synthetic 'dataset' of ``n`` values.

    Mirrors the paper's replay setup: local nodes replay the same dataset
    from different positions (see
    :func:`repro.streams.generator.replayed_offsets`).
    """
    if n <= 0:
        raise ConfigurationError(f"n must be > 0, got {n}")
    sensors = default_sensors(max(1, n_sensors - 1))[:n_sensors]
    per = -(-n // len(sensors))  # ceil division
    columns = [SoccerTraceGenerator(s, seed=seed + s.sensor_id).values(per)
               for s in sensors]
    # Interleave sensors round-robin like the merged challenge stream.
    stacked = np.stack(columns, axis=1).reshape(-1)
    return stacked[:n]


class ReplayValues:
    """Value source replaying a dataset array from a start offset."""

    def __init__(self, dataset: np.ndarray, offset: int = 0):
        dataset = np.asarray(dataset, dtype=np.float64)
        if dataset.ndim != 1 or len(dataset) == 0:
            raise ConfigurationError("dataset must be a non-empty 1-d array")
        self._dataset = dataset
        self._pos = int(offset) % len(dataset)

    def values(self, n: int, rng: np.random.Generator = None) -> np.ndarray:
        """Return the next ``n`` dataset values, wrapping around."""
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            take = min(n - filled, len(self._dataset) - self._pos)
            out[filled:filled + take] = \
                self._dataset[self._pos:self._pos + take]
            self._pos = (self._pos + take) % len(self._dataset)
            filled += take
        return out
