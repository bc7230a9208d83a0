#!/usr/bin/env bash
# Checks of the installed v2vbounds console script: --selfcheck passes, an
# over-limit grid, an unreachable target SNR, an over-budget subcarrier count
# and an over-limit Rx element count exit 2, the largest aperture at the Rx
# element limit runs, and silent Tx arrays calibrate. Scratch files go to
# $RUNNER_TEMP. Run from the repository root: bash .github/check_console_script.sh
set -eo pipefail

out="$(PYTHONWARNINGS=error::RuntimeWarning v2vbounds --selfcheck)"
echo "$out"
grep -qx "selfcheck PASS" <<< "$out"
status=0; v2vbounds --step 1e-9 --out "$RUNNER_TEMP/over_limit.csv" || status=$?; test "$status" -eq 2
# 10**400 overflows the calibrated power: a config error, not a traceback.
echo "overrides: {target_snr_db: 4000}" > "$RUNNER_TEMP/snr.yaml"
status=0; v2vbounds --config "$RUNNER_TEMP/snr.yaml" --out "$RUNNER_TEMP/snr.csv" || status=$?; test "$status" -eq 2
# 8e8 subcarriers would need about 95 GB: refused by MAX_SUBCARRIERS before any allocation.
echo "overrides: {max_occupied_index: 400000000}" > "$RUNNER_TEMP/subcarriers.yaml"
status=0; v2vbounds --config "$RUNNER_TEMP/subcarriers.yaml" --out "$RUNNER_TEMP/subcarriers.csv" \
  2> "$RUNNER_TEMP/subcarriers.err" || status=$?; test "$status" -eq 2
grep -q "config error: max_occupied_index" "$RUNNER_TEMP/subcarriers.err"
# 1e10 Rx elements would need 160 GB per panel array (16 B per element): refused by
# MAX_RX_ELEMENTS before any panel is built.
echo "overrides: {n_rx_elements: 10000000000}" > "$RUNNER_TEMP/elements.yaml"
status=0; v2vbounds --config "$RUNNER_TEMP/elements.yaml" --out "$RUNNER_TEMP/elements.csv" || status=$?; test "$status" -eq 2
# MAX_RX_ELEMENTS at 1 GHz: an arc about 950 m in radius, whose centring check scales with it.
echo "overrides: {carrier_frequency: 1.0e9, subcarrier_spacing: 15000, n_rx_elements: 10000," \
  "target_snr_db: 30, max_occupied_index: 60}" > "$RUNNER_TEMP/at_limit.yaml"
PYTHONWARNINGS=error::RuntimeWarning v2vbounds --config "$RUNNER_TEMP/at_limit.yaml" --out "$RUNNER_TEMP/at_limit.csv"
# Two subcarriers leave the rear Tx arrays silent; the calibration skips them.
echo "overrides: {max_occupied_index: 1}" > "$RUNNER_TEMP/silent.yaml"
PYTHONWARNINGS=error::RuntimeWarning v2vbounds --config "$RUNNER_TEMP/silent.yaml" --out "$RUNNER_TEMP/silent.csv"
