/**
 * @file
 * Golden-result corpus: every PolicyKind on 456.hmmer and 429.mcf at
 * a reduced budget (200k warm-up + 800k measured instructions, one
 * snapshot every 200k), compared against the expected outcome
 * committed under tests/golden/.
 *
 * Each cell has its own file (so a parallel ctest never has two
 * writers on one path) holding two blocks:
 *
 *   "result"    — the RunResult field list (sim/checkpoint.hh)
 *                 without the wall-clock `wall_seconds`;
 *   "artifacts" — the run-artifact JSON without the wall-clock
 *                 `profile` and `timing` blocks.
 *
 * Doubles are written in their shortest round-trip form (to_chars),
 * so the comparison is exact: any change to a simulated outcome fails
 * here with a per-field diff.
 *
 * Regenerate after an intended behaviour change with
 *
 *   SDBP_UPDATE_GOLDEN=1 ctest -R Golden
 *
 * which rewrites every cell file and prints the per-field diff
 * against the previous contents.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.hh"
#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "util/env.hh"
#include "util/file.hh"

namespace sdbp
{
namespace
{

/** Rebuild a JSON tree without the wall-clock-dependent members. */
obs::JsonValue
stripVolatile(const obs::JsonValue &v)
{
    if (v.isObject()) {
        auto out = obs::JsonValue::object();
        for (const auto &[key, val] : v.members()) {
            if (key == "profile" || key == "timing" ||
                key == "wall_seconds")
                continue;
            out.set(key, stripVolatile(val));
        }
        return out;
    }
    if (v.isArray()) {
        auto out = obs::JsonValue::array();
        for (std::size_t i = 0; i < v.size(); ++i)
            out.push(stripVolatile(v.at(i)));
        return out;
    }
    return v;
}

/** Leaf path ("artifacts.stats.llc.evictions") -> compact value. */
void
flatten(const obs::JsonValue &v, const std::string &path,
        std::map<std::string, std::string> &out)
{
    if (v.isObject() && v.size() > 0) {
        for (const auto &[key, val] : v.members())
            flatten(val, path.empty() ? key : path + "." + key, out);
    } else if (v.isArray() && v.size() > 0) {
        for (std::size_t i = 0; i < v.size(); ++i)
            flatten(v.at(i), path + "[" + std::to_string(i) + "]", out);
    } else {
        out[path] = v.dump(0);
    }
}

/** One line per added, removed or changed leaf. */
std::vector<std::string>
fieldDiff(const obs::JsonValue &before, const obs::JsonValue &after)
{
    std::map<std::string, std::string> a, b;
    flatten(before, "", a);
    flatten(after, "", b);
    std::vector<std::string> lines;
    for (const auto &[path, val] : a) {
        const auto it = b.find(path);
        if (it == b.end())
            lines.push_back("- " + path + " = " + val);
        else if (it->second != val)
            lines.push_back("~ " + path + ": " + val + " -> " +
                            it->second);
    }
    for (const auto &[path, val] : b)
        if (!a.contains(path))
            lines.push_back("+ " + path + " = " + val);
    return lines;
}

std::uint64_t
statValue(const obs::JsonValue &cell, const std::string &name)
{
    // artifacts.stats is the final snapshot {tick, stats}.
    const obs::JsonValue *v = &cell;
    for (const char *key : {"artifacts", "stats", "stats"})
        if (v)
            v = v->find(key);
    v = v ? v->find(name) : nullptr;
    return v ? v->asUInt() : 0;
}

using GoldenParam = std::tuple<PolicyKind, std::string>;

std::string
cellName(PolicyKind kind, const std::string &benchmark)
{
    std::string name = policyName(kind) + "_" + benchmark;
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

class GoldenCorpus : public ::testing::TestWithParam<GoldenParam>
{
};

TEST_P(GoldenCorpus, MatchesCommittedCell)
{
    const auto [kind, benchmark] = GetParam();

    // Built from the defaults, not RunConfig::singleCore(): the
    // corpus must not move with SDBP_* environment overrides.
    RunConfig cfg;
    cfg.warmupInstructions = 200'000;
    cfg.measureInstructions = 800'000;
    cfg.obs.collect = true;
    cfg.obs.intervalInstructions = 200'000;

    const RunResult res = runSingleCore(benchmark, kind, cfg);
    ASSERT_TRUE(res.artifacts);
    auto cell = obs::JsonValue::object();
    cell.set("result", stripVolatile(obs::toJson(res)));
    cell.set("artifacts", stripVolatile(res.artifacts->toJson()));
    const std::string actual = cell.dump(2) + "\n";

    const std::string path = std::string(SDBP_GOLDEN_DIR) + "/" +
                             cellName(kind, benchmark) + ".json";
    bool have_file = false;
    const std::string committed = util::readFile(path, &have_file);
    const auto expected = have_file
        ? obs::JsonValue::parse(committed)
        : std::nullopt;
    const std::vector<std::string> diff =
        fieldDiff(expected ? *expected : obs::JsonValue::object(), cell);

    if (env::u64("SDBP_UPDATE_GOLDEN", 0, 0, 1) != 0) {
        ASSERT_TRUE(util::atomicWriteFile(path, actual)) << path;
        if (actual != committed) {
            std::cout << "updated " << path << " (" << diff.size()
                      << " fields)\n";
            for (const std::string &line : diff)
                std::cout << "  " << line << "\n";
        }
    } else {
        ASSERT_TRUE(have_file)
            << path << " is missing; regenerate with SDBP_UPDATE_GOLDEN=1";
        ASSERT_TRUE(expected) << path << " is not valid JSON";
        std::string report;
        for (std::size_t i = 0; i < diff.size() && i < 40; ++i)
            report += "  " + diff[i] + "\n";
        if (diff.size() > 40)
            report += "  ... " + std::to_string(diff.size() - 40) +
                      " more\n";
        if (!diff.empty())
            ADD_FAILURE() << path << " differs in " << diff.size()
                          << " fields:\n" << report;
        else // same values: key order and formatting must agree too
            EXPECT_EQ(actual, committed) << path;
    }

    // The corpus exercises DBRB victim selection and bypass, not
    // just the wrapper's bookkeeping: every DBRB cell evicts from the
    // LLC, bypasses fills and evicts predicted-dead blocks.
    if (res.hasDbrb) {
        EXPECT_GT(statValue(cell, "llc.evictions"), 0u);
        EXPECT_GT(res.dbrb.bypasses, 0u);
        EXPECT_GT(res.dbrb.deadEvictions, 0u);
    }
}

std::string
paramName(const ::testing::TestParamInfo<GoldenParam> &info)
{
    return cellName(std::get<0>(info.param), std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, GoldenCorpus,
    ::testing::Combine(::testing::ValuesIn(allPolicyKinds()),
                       ::testing::Values("456.hmmer", "429.mcf")),
    paramName);

} // anonymous namespace
} // namespace sdbp
