/**
 * @file
 * The config language's one table, parser and printer.
 */
#include "sim/config.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <stdexcept>

namespace rayflex::sim
{

namespace
{

const std::array<const char *, 2> kBackendNames{"fixed-latency",
                                                "node-cache"};
const std::array<const char *, 3> kL2Names{"off", "shared", "private"};
constexpr std::array<core::DatapathConfig, 4> kPaperDatapaths{
    core::kBaselineUnified, core::kBaselineDisjoint,
    core::kExtendedUnified, core::kExtendedDisjoint};
const std::array<const char *, 3> kRegisterPolicyNames{
    core::registerPolicyName(core::RegisterPolicy::DisjointPerOp),
    core::registerPolicyName(core::RegisterPolicy::SharedUnionAligned),
    core::registerPolicyName(core::RegisterPolicy::SharedUnionWorstCase)};

/** The paper configuration `dp` belongs to: its extended and disjoint
 *  choices, every other field at its default. */
core::DatapathConfig
paperBase(const core::DatapathConfig &dp)
{
    core::DatapathConfig base;
    base.extended = dp.extended;
    base.disjoint = dp.disjoint;
    return base;
}

constexpr uint64_t kMaxLatency = 1000000;

} // namespace

/** A numeric key named after its member path. */
#define RAYFLEX_NUMBER_KEY(field, lo, hi)                                   \
    ConfigKey                                                               \
    {                                                                       \
        #field, lo, hi, {},                                                 \
            [](const EngineConfig &c) { return std::to_string(c.field); },  \
            [](EngineConfig &c, uint64_t v) {                               \
                c.field = decltype(c.field)(v);                             \
            }                                                               \
    }

/** An enum key: its value names index the enum. */
#define RAYFLEX_ENUM_KEY(field, Enum, names)                                \
    ConfigKey                                                               \
    {                                                                       \
        #field, 0, names.size() - 1, {names.begin(), names.end()},          \
            [](const EngineConfig &c) {                                     \
                return std::string(names[size_t(c.field)]);                 \
            },                                                              \
            [](EngineConfig &c, uint64_t v) { c.field = Enum(v); }          \
    }

std::span<const ConfigKey>
configKeys()
{
    static const std::vector<ConfigKey> keys{
        RAYFLEX_NUMBER_KEY(rt.ray_buffer_entries, 1, 65536),
        RAYFLEX_NUMBER_KEY(rt.mem_latency, 0, kMaxLatency),
        RAYFLEX_NUMBER_KEY(rt.issue_width, 1, bvh::kMaxIssueWidth),
        RAYFLEX_NUMBER_KEY(rt.mshrs, 0, 65536),
        RAYFLEX_ENUM_KEY(rt.mem_backend, bvh::MemBackend, kBackendNames),
        RAYFLEX_NUMBER_KEY(rt.cache.line_bytes, 0, 4096),
        RAYFLEX_NUMBER_KEY(rt.cache.sets, 0, 16384),
        RAYFLEX_NUMBER_KEY(rt.cache.ways, 0, 64),
        RAYFLEX_NUMBER_KEY(rt.cache.hit_latency, 0, kMaxLatency),
        RAYFLEX_NUMBER_KEY(rt.cache.miss_latency, 0, kMaxLatency),
        RAYFLEX_NUMBER_KEY(rt.packet.width, 1, bvh::kMaxPacketWidth),
        RAYFLEX_NUMBER_KEY(rt.packet.compact_below, 0,
                           bvh::kMaxPacketWidth),
        ConfigKey{"dp",
                  0,
                  kPaperDatapaths.size() - 1,
                  {kPaperDatapaths[0].name(), kPaperDatapaths[1].name(),
                   kPaperDatapaths[2].name(), kPaperDatapaths[3].name()},
                  [](const EngineConfig &c) { return paperBase(c.dp).name(); },
                  [](EngineConfig &c, uint64_t v) {
                      c.dp.extended = kPaperDatapaths[v].extended;
                      c.dp.disjoint = kPaperDatapaths[v].disjoint;
                  }},
        RAYFLEX_NUMBER_KEY(dp.perturb_squarers, 0, 1),
        RAYFLEX_NUMBER_KEY(dp.box_width, 1, core::kMaxBoxesPerOp),
        RAYFLEX_ENUM_KEY(dp.register_policy, core::RegisterPolicy,
                         kRegisterPolicyNames),
        RAYFLEX_NUMBER_KEY(dp.skip_intermediate_rounding, 0, 1),
        RAYFLEX_NUMBER_KEY(chip.units, 1, kMaxChipUnits),
        RAYFLEX_ENUM_KEY(chip.l2, L2Mode, kL2Names),
        RAYFLEX_NUMBER_KEY(chip.l2cfg.line_bytes, 0, 4096),
        RAYFLEX_NUMBER_KEY(chip.l2cfg.banks, 0, 64),
        RAYFLEX_NUMBER_KEY(chip.l2cfg.sets, 0, 16384),
        RAYFLEX_NUMBER_KEY(chip.l2cfg.ways, 0, 64),
        RAYFLEX_NUMBER_KEY(chip.l2cfg.hit_latency, 0, kMaxLatency),
        RAYFLEX_NUMBER_KEY(chip.l2cfg.miss_latency, 0, kMaxLatency),
        RAYFLEX_NUMBER_KEY(max_cycles_per_batch, 1,
                           std::numeric_limits<uint64_t>::max()),
        RAYFLEX_NUMBER_KEY(batch_size, 0,
                           std::numeric_limits<size_t>::max()),
    };
    return keys;
}

#undef RAYFLEX_NUMBER_KEY
#undef RAYFLEX_ENUM_KEY

uint64_t
parseNumber(std::string_view key, std::string_view value, uint64_t lo,
            uint64_t hi)
{
    uint64_t v = 0;
    const char *end = value.data() + value.size();
    const auto [p, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc() || p != end || v < lo || v > hi)
        throw std::invalid_argument(
            std::string(key) + " must be an integer in " +
            std::to_string(lo) + ".." + std::to_string(hi) + ", got '" +
            std::string(value) + "'");
    return v;
}

void
setConfigKey(EngineConfig &cfg, std::string_view token)
{
    const size_t eq = token.find('=');
    const std::string_view name = token.substr(0, eq);
    const std::span<const ConfigKey> keys = configKeys();
    const auto key = std::find_if(keys.begin(), keys.end(),
                                  [&](const ConfigKey &k) {
                                      return name == k.name;
                                  });
    if (key == keys.end())
        throw std::invalid_argument("unknown key '" + std::string(name) +
                                    "'");
    if (eq == std::string_view::npos)
        throw std::invalid_argument(std::string(name) +
                                    " needs a value (key=value)");
    const std::string_view value = token.substr(eq + 1);
    if (key->values.empty()) {
        key->set(cfg, parseNumber(name, value, key->lo, key->hi));
        return;
    }
    const auto named =
        std::find(key->values.begin(), key->values.end(), value);
    if (named == key->values.end()) {
        std::string msg = std::string(name) + " must be one of ";
        for (const std::string &v : key->values)
            msg += v + (&v == &key->values.back() ? "; " : ", ");
        throw std::invalid_argument(msg + "got '" + std::string(value) +
                                    "'");
    }
    key->set(cfg, uint64_t(named - key->values.begin()));
}

std::string
describe(const EngineConfig &cfg)
{
    static const EngineConfig kDefaults;
    std::string out;
    for (const ConfigKey &k : configKeys()) {
        const std::string v = k.get(cfg);
        if (v == k.get(kDefaults))
            continue;
        if (!out.empty())
            out += ' ';
        out += std::string(k.name) + "=" + v;
    }
    return out;
}

} // namespace rayflex::sim
