/**
 * @file
 * The config language: every result-affecting field of
 * sim::EngineConfig as one `key=value` token.
 *
 * Each key is the field's member path from the EngineConfig
 * (`rt.issue_width`, `rt.packet.compact_below`, `chip.l2cfg.banks`,
 * `batch_size`), declared once in configKeys() with the inclusive
 * range the parser accepts. An enum key takes a value name instead of
 * a number: `rt.mem_backend` (fixed-latency, node-cache), `chip.l2`
 * (off, shared, private), `dp`, one of the four paper configurations
 * by core::DatapathConfig::name() (it sets `extended` and `disjoint`),
 * and `dp.register_policy` (core::registerPolicyName). The other
 * datapath fields are keys beside `dp` (`dp.box_width`,
 * `dp.perturb_squarers`, `dp.skip_intermediate_rounding`), so every
 * DatapathConfig has a text form. Defaults are EngineConfig{}'s, so
 * the table has no default column.
 *
 * `threads`, `trace` and `model` are not keys: the determinism
 * contracts make the first two result-invariant, and each front-end
 * fixes the model it runs.
 *
 * The parse ranges are the language's, not the engine's: the clamps
 * and rejections of bvh::validate and the Engine constructor still
 * apply to a config built in C++ (ARCHITECTURE.md, "Configuration
 * limits").
 */
#ifndef RAYFLEX_SIM_CONFIG_HH
#define RAYFLEX_SIM_CONFIG_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hh"

namespace rayflex::sim
{

/** One key of the config language. */
struct ConfigKey
{
    /** The field's member path from the EngineConfig. */
    const char *name;
    /** Inclusive range of a numeric value. */
    uint64_t lo, hi;
    /** An enum key's value names; empty for a numeric key. */
    std::vector<std::string> values;
    /** The field's value as the parser spells it. */
    std::string (*get)(const EngineConfig &);
    /** Set the field from a checked number or value-name index. */
    void (*set)(EngineConfig &, uint64_t);
};

/** The table: every key, in EngineConfig declaration order. */
std::span<const ConfigKey> configKeys();

/** Set the field that one `key=value` token names.
 *  @throws std::invalid_argument naming the key on an unknown key, a
 *          missing `=`, a non-numeric or out-of-range number, or an
 *          unknown value name. */
void setConfigKey(EngineConfig &cfg, std::string_view token);

/** The keys whose value differs from EngineConfig{}'s, as
 *  space-separated `key=value` tokens in table order ("" for the
 *  defaults). Applied to EngineConfig{} with setConfigKey they rebuild
 *  `cfg` whenever every field lies in its key's range. */
std::string describe(const EngineConfig &cfg);

/** `value` as an unsigned integer in [lo, hi]: the number reader
 *  behind setConfigKey, for a front-end's own keys.
 *  @throws std::invalid_argument naming `key` otherwise. */
uint64_t parseNumber(std::string_view key, std::string_view value,
                     uint64_t lo, uint64_t hi);

} // namespace rayflex::sim

#endif // RAYFLEX_SIM_CONFIG_HH
