#include "trace/interval_select.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace sdbp
{

namespace
{

/** splitmix64 finalizer: spreads PCs across histogram buckets. */
std::uint64_t
mixPc(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
squaredDistance(const std::vector<double> &a,
                const std::vector<double> &b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double delta = a[i] - b[i];
        d += delta * delta;
    }
    return d;
}

} // namespace

IntervalSelection
selectIntervals(TraceReader &reader, const IntervalSelectConfig &cfg)
{
    if (cfg.intervalInstructions == 0 || cfg.clusters == 0)
        fatal("interval selection needs an interval length and a "
              "cluster count");
    if (cfg.dims == 0)
        fatal("interval selection needs fingerprint dimensions");

    // Pass over the trace: cut intervals at instruction boundaries
    // and histogram each one's access PCs.
    reader.rewind();
    IntervalSelection sel;
    std::vector<std::vector<double>> prints;
    std::vector<double> current(cfg.dims, 0.0);
    std::uint64_t interval_instr = 0;
    std::uint64_t interval_records = 0;
    std::uint64_t first_record = 0;

    auto cut = [&]() {
        TraceInterval iv;
        iv.firstRecord = first_record;
        iv.recordCount = interval_records;
        iv.instructions = interval_instr;
        sel.intervals.push_back(iv);
        // Normalize to unit L1 so interval length (the trailing one
        // may be short) does not dominate the distance metric.
        double total = 0.0;
        for (const double v : current)
            total += v;
        if (total > 0.0)
            for (double &v : current)
                v /= total;
        prints.push_back(current);
        std::fill(current.begin(), current.end(), 0.0);
        first_record += interval_records;
        interval_instr = 0;
        interval_records = 0;
    };

    Access batch[1024];
    for (;;) {
        const std::size_t n =
            reader.readBatch(std::span<Access>(batch));
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i) {
            const Access &rec = batch[i];
            current[mixPc(rec.pc) % cfg.dims] += 1.0;
            interval_instr += rec.gap + 1;
            ++interval_records;
            sel.totalInstructions += rec.gap + 1;
            ++sel.totalRecords;
            if (interval_instr >= cfg.intervalInstructions)
                cut();
        }
    }
    if (interval_records > 0)
        cut();
    if (sel.intervals.empty())
        fatal("interval selection over empty trace '" +
              reader.source() + "'");

    const std::size_t n_intervals = sel.intervals.size();
    const unsigned k = static_cast<unsigned>(std::min<std::size_t>(
        cfg.clusters, n_intervals));

    // Deterministic k-means: centroids start at evenly spaced
    // intervals, assignment ties break toward the lower cluster
    // index, empty clusters keep their previous centroid.
    std::vector<std::vector<double>> centroids(k);
    for (unsigned c = 0; c < k; ++c)
        centroids[c] = prints[(static_cast<std::size_t>(c) *
                               n_intervals) / k];

    std::vector<unsigned> assign(n_intervals, 0);
    for (unsigned iter = 0; iter < cfg.maxIterations; ++iter) {
        bool changed = false;
        for (std::size_t i = 0; i < n_intervals; ++i) {
            unsigned best = 0;
            double best_d = std::numeric_limits<double>::infinity();
            for (unsigned c = 0; c < k; ++c) {
                const double d =
                    squaredDistance(prints[i], centroids[c]);
                if (d < best_d) {
                    best_d = d;
                    best = c;
                }
            }
            if (assign[i] != best) {
                assign[i] = best;
                changed = true;
            }
        }
        if (!changed && iter > 0)
            break;
        std::vector<std::vector<double>> sums(
            k, std::vector<double>(cfg.dims, 0.0));
        std::vector<std::uint64_t> counts(k, 0);
        for (std::size_t i = 0; i < n_intervals; ++i) {
            for (unsigned d = 0; d < cfg.dims; ++d)
                sums[assign[i]][d] += prints[i][d];
            ++counts[assign[i]];
        }
        for (unsigned c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue; // keep the previous centroid
            for (unsigned d = 0; d < cfg.dims; ++d)
                centroids[c][d] =
                    sums[c][d] / static_cast<double>(counts[c]);
        }
    }
    for (std::size_t i = 0; i < n_intervals; ++i)
        sel.intervals[i].cluster = assign[i];

    // Representative per cluster: the member closest to the final
    // centroid (ties toward the earlier interval); its weight is the
    // cluster's share of the trace's instructions.
    for (unsigned c = 0; c < k; ++c) {
        std::size_t best = n_intervals;
        double best_d = std::numeric_limits<double>::infinity();
        std::uint64_t cluster_instr = 0;
        for (std::size_t i = 0; i < n_intervals; ++i) {
            if (assign[i] != c)
                continue;
            cluster_instr += sel.intervals[i].instructions;
            const double d = squaredDistance(prints[i], centroids[c]);
            if (d < best_d) {
                best_d = d;
                best = i;
            }
        }
        if (best == n_intervals)
            continue; // empty cluster: nothing to represent
        RepresentativeInterval rep;
        rep.interval = best;
        rep.weight = static_cast<double>(cluster_instr) /
                     static_cast<double>(sel.totalInstructions);
        sel.reps.push_back(rep);
    }
    std::sort(sel.reps.begin(), sel.reps.end(),
              [](const RepresentativeInterval &a,
                 const RepresentativeInterval &b) {
                  return a.interval < b.interval;
              });
    return sel;
}

std::vector<std::vector<Access>>
collectIntervals(TraceReader &reader, const IntervalSelection &sel,
                 const std::vector<std::size_t> &wanted)
{
    // Sort the distinct interval indices so one sequential read of
    // the trace fills them all.
    std::vector<std::size_t> order(wanted);
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());

    std::vector<std::vector<Access>> collected(order.size());
    reader.rewind();
    std::uint64_t record = 0;
    std::size_t next = 0;
    Access batch[1024];
    while (next < order.size()) {
        const std::size_t n =
            reader.readBatch(std::span<Access>(batch));
        if (n == 0)
            fatal("trace '" + reader.source() +
                  "' ended before the selected intervals");
        for (std::size_t i = 0; i < n && next < order.size(); ++i) {
            const TraceInterval &iv = sel.intervals[order[next]];
            if (record >= iv.firstRecord &&
                record < iv.firstRecord + iv.recordCount)
                collected[next].push_back(batch[i]);
            ++record;
            if (record == iv.firstRecord + iv.recordCount)
                ++next;
        }
    }

    std::vector<std::vector<Access>> out;
    out.reserve(wanted.size());
    for (const std::size_t idx : wanted) {
        const std::size_t slot = static_cast<std::size_t>(
            std::lower_bound(order.begin(), order.end(), idx) -
            order.begin());
        out.push_back(collected[slot]);
    }
    return out;
}

} // namespace sdbp
