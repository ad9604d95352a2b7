/**
 * @file
 * The serving phase: a synthetic recording is ingested into a
 * QueryEngine (setup), then in every round one QueryServer is driven
 * open-loop at the workload's fixed rate and another at saturation,
 * and at the end every answer is checked against serial
 * QueryEngine::execute() at parallelism 1.
 * The traced run adds the layer probes: manual runOnce stepping, plan
 * compilation, store range/bucket/gather calls, the confirm kernels,
 * execute() on the engine pool and batched hashing, each timed around
 * its public call.
 */

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "scalo/app/query_engine.hpp"
#include "scalo/core/system.hpp"
#include "scalo/lsh/ssh.hpp"
#include "scalo/serve/query_server.hpp"
#include "scalo/signal/distance.hpp"
#include "scalo/signal/window_batch.hpp"
#include "workload.hpp"

namespace e2e {

namespace {

using namespace scalo;

constexpr std::size_t kSamples = 96;
constexpr std::uint64_t kStrideUs = 4'000;
/** Electrode ids are global: node * 96 + local electrode, so a match
 *  list of (timestamp, electrode) pairs also names the node. */
constexpr std::uint32_t kElectrodesPerNode = 96;
constexpr std::size_t kTemplates = 4;
/** Seizure episodes: runs of this many windows, 1 in 20 episodes. */
constexpr std::size_t kEpisodeWindows = 32;
constexpr std::uint64_t kEpisodeOdds = 20;
constexpr double kEuclidThreshold = 6.0;
constexpr double kDtwThreshold = 40.0;
constexpr std::size_t kTenants = 8;
constexpr std::size_t kIngestChunk = 512;
/** Catalog time ranges reach back at most this many windows. */
constexpr std::size_t kCatalogReach = 1'024;
/** Requests due this early are left out of latency statistics while
 *  caches fill. */
constexpr double kWarmupSeconds = 0.3;
/** Request::slot of requests outside the open-loop schedule. */
constexpr std::size_t kNoSlot = SIZE_MAX;

/**
 * The synthetic recording, deterministic per (seed, node, window).
 * The seizure templates are fixed: the seed moves noise, episode
 * placement, probes and arrivals, but a few template draws must not
 * decide how costly a whole run is (hash-match rates depend on them).
 */
class Recording
{
  public:
    Recording(std::uint64_t seed, std::size_t nodes)
        : seed(seed), nodes(nodes),
          shift(mix64(seed) % (kEpisodeWindows * kEpisodeOdds))
    {
        Rng rng(0x7e3a);
        for (std::vector<double> &shape : templates) {
            shape.resize(kSamples);
            const double f1 = 2.0 + static_cast<double>(rng.below(4));
            const double f2 = 6.0 + static_cast<double>(rng.below(6));
            const double p1 = 6.283 * rng.uniform();
            const double p2 = 6.283 * rng.uniform();
            const std::size_t spike = rng.below(kSamples - 8);
            for (std::size_t i = 0; i < kSamples; ++i) {
                const double x = static_cast<double>(i) /
                                 static_cast<double>(kSamples);
                shape[i] = 2.0 * std::sin(6.283 * f1 * x + p1) +
                           1.0 * std::sin(6.283 * f2 * x + p2);
                if (i >= spike && i < spike + 8)
                    shape[i] += 3.0;
            }
        }
    }

    /**
     * One episode every kEpisodeOdds episode slots per node, with node
     * phases staggered evenly (plus a seeded shift): any time range
     * then holds nearly the same number of seizure windows summed over
     * nodes, whatever the seed.
     */
    bool
    seizure(std::size_t node, std::size_t w) const
    {
        return episodeSlot(node, w) % kEpisodeOdds == 0;
    }

    /** Templates rotate per episode, so each gets an equal share. */
    std::size_t
    templateOf(std::size_t node, std::size_t w) const
    {
        return (episodeSlot(node, w) / kEpisodeOdds + node) % kTemplates;
    }

    void
    window(std::size_t node, std::size_t w,
           std::vector<double> &out) const
    {
        out.resize(kSamples);
        Rng rng(streamKey(seed ^ 0xda7a, node, w));
        if (seizure(node, w)) {
            const std::vector<double> &shape =
                templates[templateOf(node, w)];
            for (std::size_t i = 0; i < kSamples; ++i)
                out[i] = shape[i] + 0.3 * rng.gaussian();
        } else {
            for (double &v : out)
                v = rng.gaussian();
        }
    }

    const std::vector<double> &
    shape(std::size_t k) const
    {
        return templates[k];
    }

    static std::uint64_t
    timestamp(std::size_t w)
    {
        return static_cast<std::uint64_t>(w) * kStrideUs;
    }

  private:
    std::size_t
    episodeSlot(std::size_t node, std::size_t w) const
    {
        const std::size_t period = kEpisodeWindows * kEpisodeOdds;
        const std::size_t phase =
            (node * period / nodes + shift) % period;
        return (w + phase) / kEpisodeWindows;
    }

    std::uint64_t seed;
    std::size_t nodes;
    std::size_t shift;
    std::vector<double> templates[kTemplates];
};

enum class Kind
{
    Q1,
    Q2Hash,
    Q2Euclid,
    Q2Dtw,
    Q2FullScan,
    Q3,
};

struct PoolQuery
{
    app::Query query;
    Kind kind = Kind::Q3;
};

app::Query
withProbe(std::uint64_t t0, std::uint64_t t1, std::vector<double> probe,
          Kind kind)
{
    switch (kind) {
      case Kind::Q2Hash:
        return app::Query::q2(t0, t1, std::move(probe));
      case Kind::Q2Euclid:
      case Kind::Q2Dtw: {
        app::Query query = app::Query::q2(
            t0, t1, std::move(probe),
            kind == Kind::Q2Euclid ? kEuclidThreshold : kDtwThreshold,
            kind == Kind::Q2Euclid ? signal::Measure::Euclidean
                                   : signal::Measure::Dtw);
        query.hashPrefilter = true; // confirm hash candidates only
        query.useIndex = true;
        return query;
      }
      default: // full-scan exact DTW (the legacy exact path)
        return app::Query::q2(t0, t1, std::move(probe), kDtwThreshold,
                              signal::Measure::Dtw);
    }
}

/** Query source: a fixed catalog, or a fresh query per request. */
class QuerySource
{
  public:
    QuerySource(const Recording &recording, const ServeSpec &spec,
                std::uint64_t seed, std::size_t retained)
        : recording(recording), spec(spec), rng(streamKey(seed, 0x9e7)),
          oldest(spec.windowsPerNode - retained), retained(retained)
    {
        for (double &p : phase)
            p = rng.uniform();
        if (spec.unique)
            return;
        // <= 64 plans: 4 newest-window ranges x {Q1, 4 hash probes,
        // 4 Euclidean-confirm probes, Q3}; the probes are the
        // templates themselves.
        std::vector<std::vector<double>> probes;
        for (std::size_t k = 0; k < kTemplates; ++k)
            probes.push_back(recording.shape(k));
        const std::size_t reach = std::min(kCatalogReach, retained);
        for (std::size_t r = reach / 8; r <= reach; r *= 2) {
            const std::uint64_t t1 =
                Recording::timestamp(spec.windowsPerNode - 1);
            const std::uint64_t t0 =
                Recording::timestamp(spec.windowsPerNode - r);
            catalogByKind[0].push_back(add({app::Query::q1(t0, t1),
                                            Kind::Q1}));
            for (const std::vector<double> &probe : probes) {
                catalogByKind[1].push_back(
                    add({withProbe(t0, t1, probe, Kind::Q2Hash),
                         Kind::Q2Hash}));
                catalogByKind[2].push_back(
                    add({withProbe(t0, t1, probe, Kind::Q2Euclid),
                         Kind::Q2Euclid}));
            }
            catalogByKind[3].push_back(add({app::Query::q3(t0, t1),
                                            Kind::Q3}));
        }
    }

    /** Pool index of the next request's query. */
    std::size_t
    next()
    {
        if (!spec.unique) {
            const std::vector<std::size_t> &bucket =
                catalogByKind[rng.below(4)];
            return bucket[rng.below(bucket.size())];
        }
        return add(fresh());
    }

    const PoolQuery &at(std::size_t index) const { return pool[index]; }
    std::size_t size() const { return pool.size(); }

  private:
    std::size_t
    add(PoolQuery query)
    {
        pool.push_back(std::move(query));
        return pool.size() - 1;
    }

    /**
     * A distinct query: a stored seizure window plus noise as the
     * probe, over 25-100% of retention (short ranges for full-scan
     * exact queries). Kinds come in shuffled blocks of 20 (3
     * DTW-confirm, 9 Euclidean-confirm, 7 hash-only, 1 full scan), and
     * each kind's range lengths follow a low-discrepancy sequence from
     * a seeded phase while its probes cycle through the templates. So
     * every run offers the same spread of query costs, and the seed
     * moves which query comes when, not how many of the costliest a
     * run happens to draw: the p99 rests on about a dozen requests.
     */
    PoolQuery
    fresh()
    {
        if (kindBlock.empty()) {
            kindBlock.insert(kindBlock.end(), 3, Kind::Q2Dtw);
            kindBlock.insert(kindBlock.end(), 9, Kind::Q2Euclid);
            kindBlock.insert(kindBlock.end(), 7, Kind::Q2Hash);
            kindBlock.insert(kindBlock.end(), 1, Kind::Q2FullScan);
            for (std::size_t i = kindBlock.size() - 1; i > 0; --i)
                std::swap(kindBlock[i], kindBlock[rng.below(i + 1)]);
        }
        const Kind kind = kindBlock.back();
        kindBlock.pop_back();
        const auto k = static_cast<std::size_t>(kind);
        const std::size_t n = drawn[k]++;
        // Golden-ratio (Weyl) sequence: evenly spread for any phase.
        const double u =
            std::fmod(phase[k] + 0.6180339887498949 *
                                     static_cast<double>(n),
                      1.0);
        std::size_t length =
            kind == Kind::Q2FullScan
                ? 32 + static_cast<std::size_t>(96.999 * u)
                : static_cast<std::size_t>(
                      (0.25 + 0.75 * u) * static_cast<double>(retained));
        length = std::clamp<std::size_t>(length, 1, retained);
        const std::size_t start =
            oldest + rng.below(retained - length + 1);

        // Probe: a retained seizure window of the wanted template on a
        // random node, the first at or after a random window.
        const std::size_t node = rng.below(spec.nodes);
        const std::size_t want = n % kTemplates;
        std::size_t w = oldest + rng.below(retained);
        for (std::size_t step = 0;
             step < retained && !(recording.seizure(node, w) &&
                                  recording.templateOf(node, w) == want);
             ++step)
            w = w + 1 == oldest + retained ? oldest : w + 1;
        std::vector<double> probe;
        recording.window(node, w, probe);
        for (double &v : probe)
            v += 0.2 * rng.gaussian();
        return {withProbe(Recording::timestamp(start),
                          Recording::timestamp(start + length - 1),
                          std::move(probe), kind),
                kind};
    }

    const Recording &recording;
    const ServeSpec &spec;
    Rng rng;
    std::size_t oldest;
    std::size_t retained;
    std::vector<PoolQuery> pool;
    std::vector<std::size_t> catalogByKind[4];
    /** Distinct queries: the rest of the current block of kinds, and
     *  per kind the queries drawn so far and the sequence's phase. */
    std::vector<Kind> kindBlock;
    std::size_t drawn[6] = {};
    double phase[6] = {};
};

enum class Fate
{
    Pending,
    Done,
    Rejected,
    TimedOut,
    Cancelled,
};

/** One request of a serving phase, from due time to checked answer. */
struct Request
{
    std::size_t query = 0;
    /** Index in the open-loop schedule; kNoSlot for saturation and
     *  stepped requests. */
    std::size_t slot = kNoSlot;
    std::size_t tenant = 0;
    Clock::time_point due;
    Clock::time_point submitted;
    serve::TicketId ticket = serve::kInvalidTicket;
    serve::SubmitStatus status = serve::SubmitStatus::Invalid;
    Fate fate = Fate::Pending;
    double serveMs = 0.0;
    double execMs = 0.0;
    double maxShardMs = 0.0;
    double medianShardMs = 0.0;
    std::size_t scanned = 0;
    std::size_t matched = 0;
    std::size_t comparisons = 0;
    bool complete = false;
    std::uint64_t digest = 0;
};

std::uint64_t
digestOf(const app::QueryExecution &execution)
{
    Digest digest;
    digest.add(static_cast<std::uint64_t>(execution.matches.size()));
    for (const app::StoredWindow *window : execution.matches) {
        digest.add(window->timestampUs);
        digest.add(static_cast<std::uint64_t>(window->electrode));
    }
    return digest.value();
}

const std::string &
tenantName(std::size_t tenant)
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (std::size_t t = 0; t < kTenants; ++t)
            out.push_back("clinician-" + std::to_string(t));
        return out;
    }();
    return names[tenant % kTenants];
}

/** Submits requests and collects their answers (single thread). */
class LoadClient
{
  public:
    LoadClient(serve::QueryServer &server, QuerySource &source,
           std::vector<Request> &requests, SpanLog &spans)
        : server(server), source(source), requests(requests),
          spans(spans)
    {
    }

    /** Submit request @p r now. */
    void
    submit(std::size_t r)
    {
        Request &request = requests[r];
        const app::Query &query = source.at(request.query).query;
        request.submitted = Clock::now();
        const serve::SubmitResult result =
            server.submit(tenantName(request.tenant), query);
        spans.add(Stage::Admission, r, request.submitted, Clock::now());
        request.status = result.status;
        request.ticket = result.id;
        if (result.accepted())
            outstanding.push_back(r);
        else
            request.fate = Fate::Rejected;
    }

    /**
     * Collect up to @p max_answers answers in submission order.
     * @return answers taken
     */
    std::size_t
    pollFront(std::size_t max_answers = SIZE_MAX)
    {
        std::size_t taken = 0;
        while (!outstanding.empty() && taken < max_answers) {
            Request &request = requests[outstanding.front()];
            serve::QueryResponse response = server.poll(request.ticket);
            if (response.state == serve::TicketState::Queued ||
                response.state == serve::TicketState::Running)
                break;
            take(outstanding.front(), request, response);
            outstanding.pop_front();
            ++taken;
        }
        return taken;
    }

    /** Wait up to @p grace_ms for stragglers, then time them out. */
    void
    drain(double grace_ms)
    {
        const Clock::time_point start = Clock::now();
        while (!outstanding.empty() && msSince(start) < grace_ms) {
            if (pollFront() == 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
        }
        for (std::size_t r : outstanding) {
            server.cancel(requests[r].ticket);
            server.poll(requests[r].ticket);
            requests[r].fate = Fate::TimedOut;
        }
        outstanding.clear();
    }

    std::size_t inFlight() const { return outstanding.size(); }

  private:
    void
    take(std::size_t r, Request &request,
         const serve::QueryResponse &response)
    {
        if (response.state != serve::TicketState::Done) {
            request.fate = Fate::Cancelled;
            return;
        }
        const app::QueryExecution &execution = response.execution;
        request.fate = Fate::Done;
        request.serveMs = response.serveMs;
        request.execMs = execution.wall.count();
        request.scanned = execution.scanned;
        request.matched = execution.matches.size();
        request.complete = execution.coverage.complete();
        request.digest = digestOf(execution);
        std::vector<double> shards;
        for (const app::QueryStats &stats : execution.perNode) {
            request.comparisons += stats.dtwComparisons;
            if (stats.answered)
                shards.push_back(stats.wall.count());
        }
        if (!shards.empty()) {
            request.maxShardMs =
                *std::max_element(shards.begin(), shards.end());
            request.medianShardMs = median(shards);
        }
        spans.addDuration(Stage::QueueWait, r,
                          std::max(0.0, request.serveMs - request.execMs));
        spans.addDuration(Stage::Execute, r, request.execMs);
        spans.addDuration(Stage::Merge, r,
                          std::max(0.0, request.execMs -
                                            request.maxShardMs));
    }

    serve::QueryServer &server;
    QuerySource &source;
    std::vector<Request> &requests;
    SpanLog &spans;
    std::deque<std::size_t> outstanding;
};

serve::ServeConfig
serveConfig(std::size_t dispatchers)
{
    serve::ServeConfig config;
    config.dispatchers = dispatchers;
    config.queueCapacity = 1'024;
    config.tenantQuota = 256;
    config.maxBatch = 16;
    config.planCacheCapacity = 128;
    return config;
}

/**
 * Wait for the next due time: sleep while it is far off, spin (with
 * yields) over the last 10 ms. A sleeping thread's virtual CPU halts,
 * and on a busy host it is woken late by up to milliseconds; every
 * late submit counts in the request's latency.
 */
void
pauseUntil(Clock::time_point due)
{
    const auto left = due - Clock::now();
    if (left > std::chrono::milliseconds(12))
        std::this_thread::sleep_for(
            std::min<Clock::duration>(left - std::chrono::milliseconds(10),
                                      std::chrono::milliseconds(10)));
    else if (left > Clock::duration::zero())
        std::this_thread::yield();
}

/**
 * The open-loop server's dispatchers: threads that run the server's
 * dispatch step (runOnce: claim a batch, executeBatch, finish its
 * tickets) in a polling loop for as long as the object lives. The
 * server's own dispatchers sleep on a condition variable when the
 * queue is empty; at a tenth of capacity nearly every request has to
 * wake one, and on a virtual machine a halted virtual CPU wakes after
 * anything from microseconds to milliseconds depending on the host's
 * load, which made the tail of sub-millisecond requests a measure of
 * the host rather than of the server.
 */
class Pollers
{
  public:
    Pollers(serve::QueryServer &server, std::size_t count)
    {
        for (std::size_t t = 0; t < count; ++t)
            threads.emplace_back([this, &server] {
                while (!stopping.load(std::memory_order_relaxed)) {
                    if (server.runOnce() > 0)
                        continue;
                    // Empty queue: back off briefly so that the
                    // server's lock stays free for submit and poll.
                    const Clock::time_point until =
                        Clock::now() + std::chrono::microseconds(20);
                    while (Clock::now() < until)
                        std::this_thread::yield();
                }
            });
    }

    ~Pollers()
    {
        stopping.store(true, std::memory_order_relaxed);
        for (std::thread &thread : threads)
            thread.join();
    }

    Pollers(const Pollers &) = delete;
    Pollers &operator=(const Pollers &) = delete;

  private:
    std::atomic<bool> stopping{false};
    std::vector<std::thread> threads;
};

/**
 * One open-loop segment at the fixed rate: schedule slots
 * [@p begin, @p end), due at their offsets from @p origin_s.
 */
void
openLoop(serve::QueryServer &server, QuerySource &source,
         std::vector<Request> &requests, SpanLog &spans,
         const std::vector<double> &schedule, std::size_t begin,
         std::size_t end, double origin_s)
{
    const std::size_t first = requests.size();
    for (std::size_t i = begin; i < end; ++i) {
        Request request;
        request.query = source.next();
        request.tenant = i % kTenants;
        request.slot = i;
        requests.push_back(std::move(request));
    }
    // Due times start after the queries exist: generating them is
    // not the system's work.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = begin; i < end; ++i)
        requests[first + (i - begin)].due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i] -
                                                      origin_s));
    LoadClient client(server, source, requests, spans);
    Clock::time_point last_poll = Clock::now();
    for (std::size_t r = first; r < requests.size(); ++r) {
        // Answers are collected one at a time, at most every 250 us
        // (each poll takes the server's lock, which its dispatchers
        // need), and only while the next submit is not imminent:
        // digesting a large answer must not make the generator late.
        while (Clock::now() < requests[r].due) {
            const Clock::time_point now = Clock::now();
            if (requests[r].due - now > std::chrono::microseconds(500) &&
                now - last_poll > std::chrono::microseconds(250)) {
                client.pollFront(1);
                last_poll = now;
            }
            pauseUntil(requests[r].due);
        }
        client.submit(r);
    }
    client.drain(5'000.0);
}

/**
 * Saturation phase: keep the admission queue holding several batches
 * and measure the completion rate after a short warm-up. Answers
 * arrive a batch at a time, so rates are taken between completions:
 * the span from the first to the last completion is cut into
 * sub-windows of about 0.4 s. @return the sub-window completion
 * rates; the median over every segment's sub-windows is reported, so
 * one host stall moves one sub-window only.
 */
std::vector<double>
saturation(serve::QueryServer &server, QuerySource &source,
           std::vector<Request> &requests, SpanLog &spans,
           double seconds, std::size_t depth)
{
    LoadClient client(server, source, requests, spans);
    const Clock::time_point start = Clock::now();
    const Clock::time_point warm =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(0.15 * seconds));
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    // (completion time in ms since warm-up, answers taken then)
    std::vector<std::pair<double, std::size_t>> completions;
    std::size_t tenant = 0;
    while (Clock::now() < end) {
        while (client.inFlight() < depth) {
            Request request;
            request.query = source.next();
            request.tenant = tenant++ % kTenants;
            request.due = Clock::now();
            requests.push_back(std::move(request));
            client.submit(requests.size() - 1);
        }
        const std::size_t taken = client.pollFront();
        if (taken == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            continue;
        }
        const Clock::time_point now = Clock::now();
        if (now >= warm)
            completions.emplace_back(msBetween(warm, now), taken);
    }
    client.drain(10'000.0);
    std::vector<double> rates;
    if (completions.size() < 2)
        return rates;
    const double first = completions.front().first;
    const double span = completions.back().first - first;
    const std::size_t windows =
        std::max<std::size_t>(1, static_cast<std::size_t>(span / 400.0));
    std::size_t next = 1; // the first completion opens the span
    double edge = first;
    for (std::size_t w = 1; w <= windows; ++w) {
        const double limit = first + span * static_cast<double>(w) /
                                         static_cast<double>(windows);
        std::size_t answers = 0;
        double last = edge;
        while (next < completions.size() &&
               completions[next].first <= limit) {
            answers += completions[next].second;
            last = completions[next].first;
            ++next;
        }
        if (last > edge)
            rates.push_back(static_cast<double>(answers) /
                            ((last - edge) / 1e3));
        edge = last;
    }
    return rates;
}

/**
 * Manual stepping: replay @p schedule in virtual time through
 * runOnce() on a dispatcher-less server, so batch composition follows
 * arrival rate and batch execution time. Fills batch sizes and the
 * share of batch entries that repeated a plan already in the batch.
 */
void
stepped(app::QueryEngine &engine, QuerySource &source,
        std::vector<Request> &requests, SpanLog &spans,
        const std::vector<double> &schedule, std::vector<double> &sizes,
        double &dedup_frac)
{
    serve::QueryServer server(engine, serveConfig(0));
    LoadClient client(server, source, requests, spans);
    std::deque<std::size_t> queued; // pool indices, FIFO like the server
    std::size_t entries = 0;
    std::size_t repeats = 0;
    double virtual_s = 0.0;
    std::size_t next = 0;
    while (next < schedule.size() || !queued.empty()) {
        if (queued.empty())
            virtual_s = std::max(virtual_s, schedule[next]);
        while (next < schedule.size() && schedule[next] <= virtual_s) {
            Request request;
            request.query = source.next();
            request.tenant = next % kTenants;
            request.due = Clock::now();
            requests.push_back(std::move(request));
            client.submit(requests.size() - 1);
            if (requests.back().fate != Fate::Rejected)
                queued.push_back(requests.back().query);
            ++next;
        }
        const Clock::time_point start = Clock::now();
        const std::size_t ran = server.runOnce();
        virtual_s += msSince(start) / 1e3;
        sizes.push_back(static_cast<double>(ran));
        std::vector<std::size_t> batch;
        for (std::size_t i = 0; i < ran && !queued.empty(); ++i) {
            batch.push_back(queued.front());
            queued.pop_front();
        }
        entries += batch.size();
        std::sort(batch.begin(), batch.end());
        repeats += batch.size() - static_cast<std::size_t>(
                                      std::unique(batch.begin(),
                                                  batch.end()) -
                                      batch.begin());
        client.pollFront();
    }
    client.drain(5'000.0);
    dedup_frac = entries ? static_cast<double>(repeats) /
                               static_cast<double>(entries)
                         : 0.0;
}

/** Serial reference digests (parallelism 1) of every answered query. */
std::unordered_map<std::size_t, std::uint64_t>
referenceDigests(app::QueryEngine &engine, const QuerySource &source,
                 const std::vector<Request> &requests,
                 std::size_t threads)
{
    std::vector<std::size_t> wanted;
    for (const Request &request : requests)
        if (request.fate == Fate::Done)
            wanted.push_back(request.query);
    std::sort(wanted.begin(), wanted.end());
    wanted.erase(std::unique(wanted.begin(), wanted.end()),
                 wanted.end());
    std::vector<std::uint64_t> digests(wanted.size());
    engine.setParallelism(1);
    std::atomic<std::size_t> cursor{0};
    const auto work = [&] {
        for (std::size_t i = cursor++; i < wanted.size(); i = cursor++)
            digests[i] =
                digestOf(engine.execute(source.at(wanted[i]).query));
    };
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t)
        workers.emplace_back(work);
    for (std::thread &worker : workers)
        worker.join();
    std::unordered_map<std::size_t, std::uint64_t> out;
    for (std::size_t i = 0; i < wanted.size(); ++i)
        out.emplace(wanted[i], digests[i]);
    return out;
}

/** Direct store and kernel calls over a sample of the served queries. */
struct LayerProbe
{
    std::vector<double> rangeUs;
    std::vector<double> candidatesUs;
    double gatherMs = 0.0;
    std::size_t gatherRows = 0;
    double euclidMs = 0.0;
    std::size_t euclidRows = 0;
    double dtwMs = 0.0;
    std::size_t dtwRows = 0;
    /** Sum of the DTW results, so the timed calls have a consumer. */
    double dtwSum = 0.0;
};

LayerProbe
probeLayers(const app::QueryEngine &engine, const QuerySource &source,
            SpanLog &spans, std::uint64_t seed)
{
    LayerProbe probe;
    Rng rng(streamKey(seed, 0x1a7e));
    const std::size_t sample = std::min<std::size_t>(400, source.size());
    signal::WindowBatch batch;
    signal::DtwScratch scratch;
    std::vector<double> distances;
    const std::size_t band = std::max<std::size_t>(1, kSamples / 10);
    for (std::size_t s = 0; s < sample; ++s) {
        const std::size_t index =
            source.size() <= sample ? s : rng.below(source.size());
        const app::Query &query = source.at(index).query;
        const app::SignalStore &store =
            engine.store(static_cast<NodeId>(s % engine.nodeCount()));

        Clock::time_point t0 = Clock::now();
        const std::vector<const app::StoredWindow *> range =
            store.range(query.t0Us, query.t1Us);
        Clock::time_point t1 = Clock::now();
        spans.add(Stage::Range, s, t0, t1);
        probe.rangeUs.push_back(msBetween(t0, t1) * 1e3);
        if (query.probe.empty())
            continue;

        const lsh::Signature hash = engine.hasher().hash(query.probe);
        t0 = Clock::now();
        std::vector<const app::StoredWindow *> candidates =
            store.candidates(hash, query.t0Us, query.t1Us);
        t1 = Clock::now();
        spans.add(Stage::Probe, s, t0, t1);
        probe.candidatesUs.push_back(msBetween(t0, t1) * 1e3);
        std::erase_if(candidates, [&](const app::StoredWindow *w) {
            return !hash.matches(w->hash);
        });
        // Kernels need rows to time; fall back to the range read.
        const std::vector<const app::StoredWindow *> &rows =
            candidates.size() >= 8 ? candidates : range;
        if (rows.empty())
            continue;

        t0 = Clock::now();
        app::SignalStore::gather(rows, batch);
        t1 = Clock::now();
        spans.add(Stage::Gather, s, t0, t1);
        probe.gatherMs += msBetween(t0, t1);
        probe.gatherRows += rows.size();

        t0 = Clock::now();
        signal::euclideanDistanceMany(query.probe, batch, distances);
        t1 = Clock::now();
        spans.add(Stage::ConfirmEuclid, s, t0, t1);
        probe.euclidMs += msBetween(t0, t1);
        probe.euclidRows += rows.size();

        t0 = Clock::now();
        for (const app::StoredWindow *window : rows)
            probe.dtwSum += signal::dtwDistanceEarlyAbandon(
                query.probe, window->samples, band, kDtwThreshold,
                scratch);
        t1 = Clock::now();
        spans.add(Stage::ConfirmDtw, s, t0, t1);
        probe.dtwMs += msBetween(t0, t1);
        probe.dtwRows += rows.size();
    }
    return probe;
}

/** The engine pool's fan-out, off the serving path. */
struct PoolProbe
{
    /** Execution wall minus the slowest shard, per pooled query. */
    std::vector<double> fanoutMs;
    double inlineMs = 0.0;
    double pooledMs = 0.0;
};

/**
 * A sample of the served queries through QueryEngine::execute(),
 * first inline (parallelism 1), then on a pool of @p workers workers
 * that the calling thread joins: the pool's dispatch, join and merge,
 * and what the pool gains over running the shards inline. Leaves the
 * engine at parallelism 1.
 */
PoolProbe
probePool(app::QueryEngine &engine, const QuerySource &source,
          SpanLog &spans, std::uint64_t seed, std::size_t workers)
{
    PoolProbe probe;
    Rng rng(streamKey(seed, 0x9001));
    std::vector<std::size_t> picks;
    const std::size_t sample = std::min<std::size_t>(200, source.size());
    for (std::size_t s = 0; s < sample; ++s)
        picks.push_back(source.size() <= sample ? s
                                                : rng.below(source.size()));
    for (const std::size_t threads : {std::size_t{1}, workers}) {
        engine.setParallelism(threads);
        for (std::size_t s = 0; s < picks.size(); ++s) {
            const Clock::time_point t0 = Clock::now();
            const app::QueryExecution execution =
                engine.execute(source.at(picks[s]).query);
            const Clock::time_point t1 = Clock::now();
            if (threads == 1) {
                probe.inlineMs += msBetween(t0, t1);
                continue;
            }
            spans.add(Stage::Execute, s, t0, t1);
            probe.pooledMs += msBetween(t0, t1);
            double slowest = 0.0;
            for (const app::QueryStats &stats : execution.perNode)
                if (stats.answered)
                    slowest = std::max(slowest, stats.wall.count());
            probe.fanoutMs.push_back(
                std::max(0.0, execution.wall.count() - slowest));
        }
    }
    engine.setParallelism(1);
    return probe;
}

/** Batched hashing throughput over the workload's own windows. */
double
hashUsPerWindow(const app::QueryEngine &engine,
                const Recording &recording, const ServeSpec &spec,
                SpanLog &spans)
{
    std::vector<std::vector<double>> windows(2'048);
    std::vector<const std::vector<double> *> pointers;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        recording.window(i % spec.nodes, i / spec.nodes, windows[i]);
        pointers.push_back(&windows[i]);
    }
    lsh::SshScratch scratch;
    std::vector<lsh::Signature> out;
    double total_ms = 0.0;
    std::size_t hashed = 0;
    for (std::uint64_t rep = 0; rep < 3 || total_ms < 30.0; ++rep) {
        const Clock::time_point t0 = Clock::now();
        engine.hasher().hashMany(pointers, scratch, out);
        const Clock::time_point t1 = Clock::now();
        spans.add(Stage::Hash, rep, t0, t1);
        total_ms += msBetween(t0, t1);
        hashed += pointers.size();
    }
    return total_ms * 1e3 / static_cast<double>(hashed);
}

/**
 * Engine construction plus ingest; generation is not timed. The
 * system keeps its default seed: the LSH hash family is configuration,
 * and a seeded family would make hash-match rates (and so the cost of
 * a run) a property of the seed.
 */
std::unique_ptr<app::QueryEngine>
buildEngine(const ServeSpec &spec, const Recording &recording,
            SpanLog &spans, double &setup_s, double &ingest_s)
{
    core::ScaloConfig config;
    config.nodes = spec.nodes;
    config.clusters = spec.clusters;
    double timed_ms = 0.0;
    double ingest_ms = 0.0;
    Clock::time_point t0 = Clock::now();
    const core::ScaloSystem system(config);
    auto engine = std::make_unique<app::QueryEngine>(
        system.makeQueryEngine(kSamples));
    timed_ms += msSince(t0);

    std::vector<app::QueryEngine::IngestWindow> chunk;
    std::uint64_t calls = 0;
    for (std::size_t node = 0; node < spec.nodes; ++node) {
        for (std::size_t w0 = 0; w0 < spec.windowsPerNode;
             w0 += kIngestChunk) {
            const std::size_t w1 =
                std::min(spec.windowsPerNode, w0 + kIngestChunk);
            chunk.resize(w1 - w0);
            for (std::size_t w = w0; w < w1; ++w) {
                app::QueryEngine::IngestWindow &window = chunk[w - w0];
                window.timestampUs = Recording::timestamp(w);
                window.electrode = static_cast<ElectrodeId>(
                    node * kElectrodesPerNode + w % kElectrodesPerNode);
                window.seizureFlagged = recording.seizure(node, w);
                recording.window(node, w, window.samples);
            }
            t0 = Clock::now();
            engine->ingestBatch(static_cast<NodeId>(node),
                                std::move(chunk));
            const Clock::time_point t1 = Clock::now();
            spans.add(Stage::Ingest, calls++, t0, t1);
            timed_ms += msBetween(t0, t1);
            ingest_ms += msBetween(t0, t1);
            chunk.clear();
        }
    }
    setup_s = timed_ms / 1e3;
    ingest_s = ingest_ms / 1e3;
    return engine;
}

double
meanComparisons(const std::vector<Request> &requests,
                const QuerySource &source, bool dtw)
{
    std::vector<double> counts;
    for (const Request &request : requests) {
        if (request.fate != Fate::Done)
            continue;
        const Kind kind = source.at(request.query).kind;
        const bool is_dtw =
            kind == Kind::Q2Dtw || kind == Kind::Q2FullScan;
        if ((dtw && is_dtw) || (!dtw && kind == Kind::Q2Euclid))
            counts.push_back(static_cast<double>(request.comparisons));
    }
    return mean(counts);
}

} // namespace

struct ServePhase::State
{
    ServeSpec spec;
    Context &ctx;
    Recording recording;
    ServeTotals totals;
    std::vector<double> ingests;
    std::unique_ptr<app::QueryEngine> engine;
    std::optional<QuerySource> source;
    std::vector<Request> requests;
    /** Open-loop arrival offsets over the whole run. */
    std::vector<double> schedule;
    double openS = 0.0;
    double saturationS = 0.0;
    /** The open loop and the saturation segments run on separate
     *  servers over the same engine, so the open-loop server's
     *  histogram and plan-cache statistics describe the fixed-rate
     *  traffic alone. */
    std::unique_ptr<serve::QueryServer> openServer;
    /** Polling dispatchers of the open loop (Pollers). */
    std::size_t dispatchers = 1;
    std::unique_ptr<serve::QueryServer> saturationServer;
    /** Saturation sub-window rates: spans recorded, and (traced run
     *  only) the untraced segments. */
    std::vector<double> rates;
    std::vector<double> untracedRates;
    SpanLog untraced{false};

    State(const ServeSpec &spec, Context &ctx)
        : spec(spec), ctx(ctx), recording(ctx.seed, spec.nodes)
    {
    }
};

ServePhase::ServePhase(const ServeSpec &spec_in, Context &ctx)
    : state(std::make_unique<State>(spec_in, ctx))
{
    State &st = *state;
    const ServeSpec &spec = st.spec;
    // Thread budget: this generator thread plus one dispatcher per
    // remaining CPU, each running its batch's shards inline. On a
    // 4-CPU host this serves the catalog mix ~25% faster than one
    // dispatcher fanning out to a 2-worker pool, and its tail latency
    // is far less sensitive to thread wake-up delays. The engine
    // pool's fan-out is measured off the serving path instead
    // (probePool, traced run).
    const std::size_t dispatchers =
        ctx.threadBudget > 1 ? ctx.threadBudget - 1 : 1;

    // Setup: engine construction plus ingest, repeated for a median.
    // Cheap setups repeat more often, up to a tenth of the run.
    const std::size_t min_reps = ctx.trace ? 1 : 3;
    const std::size_t max_reps = ctx.trace ? 1 : 9;
    const Clock::time_point setup_start = Clock::now();
    std::vector<double> setups;
    for (std::size_t rep = 0;
         rep < max_reps &&
         (rep < min_reps || msSince(setup_start) < 100.0 * ctx.seconds);
         ++rep) {
        st.engine.reset();
        double setup_s = 0.0;
        double ingest_s = 0.0;
        st.engine = buildEngine(spec, st.recording, ctx.spans, setup_s,
                                ingest_s);
        setups.push_back(setup_s);
        st.ingests.push_back(ingest_s);
    }
    st.totals.setupS = median(setups);
    std::string setup_text;
    for (double v : setups)
        setup_text.append(" ").append(std::to_string(v));
    ctx.note("serve-setup", "engine construction + ingest, s:" + setup_text);
    const std::size_t retained = st.engine->store(0).size();
    st.engine->setParallelism(1);

    st.source.emplace(st.recording, spec, ctx.seed, retained);
    st.openS = spec.openShare * ctx.seconds;
    st.saturationS = spec.saturationShare * ctx.seconds;
    st.schedule = poissonSchedule(streamKey(ctx.seed, 0x0be7),
                                  spec.rateQps, st.openS);
    st.dispatchers = dispatchers;
    st.openServer = std::make_unique<serve::QueryServer>(*st.engine,
                                                         serveConfig(0));
    st.saturationServer = std::make_unique<serve::QueryServer>(
        *st.engine, serveConfig(dispatchers));
}

ServePhase::~ServePhase() = default;

void
ServePhase::round(std::size_t k)
{
    State &st = *state;
    const double segment_s = st.openS / static_cast<double>(kRounds);
    const double origin_s = segment_s * static_cast<double>(k);
    const auto slot_at = [&](double t) {
        return static_cast<std::size_t>(
            std::lower_bound(st.schedule.begin(), st.schedule.end(), t) -
            st.schedule.begin());
    };
    const std::size_t end = k + 1 == kRounds
                                ? st.schedule.size()
                                : slot_at(origin_s + segment_s);
    {
        const Pollers pollers(*st.openServer, st.dispatchers);
        openLoop(*st.openServer, *st.source, st.requests, st.ctx.spans,
                 st.schedule, slot_at(origin_s), end, origin_s);
    }

    // Traced run: untraced and traced saturation segments in ABBA
    // order (rounds 0 and 3 untraced), so warm-up and host drift fall
    // on both sides alike when the cost of tracing is taken.
    const bool untraced_segment =
        st.ctx.trace && (k == 0 || k + 1 == kRounds);
    const std::vector<double> rates = saturation(
        *st.saturationServer, *st.source, st.requests,
        untraced_segment ? st.untraced : st.ctx.spans,
        st.saturationS / static_cast<double>(kRounds), 64);
    std::vector<double> &into =
        untraced_segment ? st.untracedRates : st.rates;
    into.insert(into.end(), rates.begin(), rates.end());
}

ServeTotals
ServePhase::finish()
{
    State &st = *state;
    Context &ctx = st.ctx;
    const ServeSpec &spec = st.spec;
    const Recording &recording = st.recording;
    const std::unique_ptr<app::QueryEngine> &engine = st.engine;
    QuerySource &source = *st.source;
    std::vector<Request> &requests = st.requests;
    const std::vector<double> &schedule = st.schedule;
    const std::vector<double> &ingests = st.ingests;
    ServeTotals &totals = st.totals;

    // Cross-check of the open loop only (timed from submit).
    const serve::Metrics server_totals = st.openServer->totals();
    const serve::PlanCache::Stats plan_stats =
        st.openServer->planCacheStats();
    st.openServer->stop();
    st.saturationServer->stop();
    st.openServer.reset();
    st.saturationServer.reset();
    const double max_qps = median(st.rates);
    const double qps_untraced = median(st.untracedRates);

    std::vector<double> batch_sizes;
    double dedup_frac = 0.0;
    LayerProbe layers;
    PoolProbe pool;
    double hash_us = 0.0;
    std::vector<double> compile_us;
    if (ctx.trace) {
        // About 2000 arrivals at the stepping rate.
        const std::vector<double> step_schedule = poissonSchedule(
            streamKey(ctx.seed, 0x57e9), spec.stepRateQps,
            2'000.0 / spec.stepRateQps);
        stepped(*engine, source, requests, ctx.spans, step_schedule,
                batch_sizes, dedup_frac);
        for (std::size_t q = 0; q < std::min<std::size_t>(source.size(),
                                                          2'000);
             ++q) {
            const Clock::time_point t0 = Clock::now();
            const app::QueryEngine::CompiledQuery compiled =
                engine->compile(source.at(q).query);
            const Clock::time_point t1 = Clock::now();
            ctx.spans.add(Stage::Compile, q, t0, t1);
            compile_us.push_back(msBetween(t0, t1) * 1e3);
        }
        layers = probeLayers(*engine, source, ctx.spans, ctx.seed);
        pool = probePool(*engine, source, ctx.spans, ctx.seed,
                         std::max<std::size_t>(2, ctx.threadBudget - 1));
        hash_us = hashUsPerWindow(*engine, recording, spec, ctx.spans);
    }

    // Correctness: every answer against the serial reference.
    const auto reference = referenceDigests(*engine, source, requests,
                                            ctx.threadBudget);
    Outcomes outcomes;
    for (const Request &request : requests) {
        ++outcomes.attempted;
        switch (request.fate) {
          case Fate::Done:
            if (!request.complete)
                ++outcomes.partial;
            else if (reference.at(request.query) != request.digest)
                ++outcomes.wrong;
            else
                ++outcomes.ok;
            break;
          case Fate::Rejected:
            if (request.status == serve::SubmitStatus::Overloaded)
                ++outcomes.rejectedOverload;
            else if (request.status ==
                     serve::SubmitStatus::QuotaExceeded)
                ++outcomes.rejectedQuota;
            else
                ++outcomes.rejectedOther;
            break;
          case Fate::TimedOut:
          case Fate::Pending:
            ++outcomes.timedOut;
            break;
          case Fate::Cancelled:
            ++outcomes.cancelled;
            break;
        }
    }
    ctx.outcomes += outcomes;
    if (outcomes.failed() > 0)
        ctx.fail("serving: " + std::to_string(outcomes.failed()) +
                 " of " + std::to_string(outcomes.attempted) +
                 " requests failed (overloaded " +
                 std::to_string(outcomes.rejectedOverload) +
                 ", quota " + std::to_string(outcomes.rejectedQuota) +
                 ", other " + std::to_string(outcomes.rejectedOther) +
                 ", timed out " + std::to_string(outcomes.timedOut) +
                 ", wrong " + std::to_string(outcomes.wrong) +
                 ", partial " + std::to_string(outcomes.partial) +
                 ", cancelled " + std::to_string(outcomes.cancelled) +
                 ")");

    // Open-loop latency from the due time, warm-up excluded.
    std::vector<double> latency;
    std::vector<double> lag;
    std::vector<const Request *> open_done;
    for (const Request &request : requests) {
        if (request.slot == kNoSlot)
            continue;
        const double lag_ms = msBetween(request.due, request.submitted);
        lag.push_back(lag_ms);
        if (schedule[request.slot] >= kWarmupSeconds &&
            request.fate == Fate::Done) {
            latency.push_back(lag_ms + request.serveMs);
            open_done.push_back(&request);
        }
    }
    // p99 of every post-warm-up sample. The p99s of up to 9
    // consecutive segments are printed beside it as a diagnostic of
    // how steady the tail was within the run.
    const Tail p99 = tailPercentile(latency, 0.99);
    if (!p99.supported)
        ctx.fail("serving: p99 unsupported (" +
                 std::to_string(latency.size()) + " samples)");
    const std::size_t segments =
        std::clamp<std::size_t>(latency.size() / 1'000, 1, 9);
    std::vector<double> segment_p99;
    for (std::size_t k = 0; k < segments; ++k)
        segment_p99.push_back(
            tailPercentile(
                std::vector<double>(
                    latency.begin() + static_cast<std::ptrdiff_t>(
                                          k * latency.size() / segments),
                    latency.begin() +
                        static_cast<std::ptrdiff_t>(
                            (k + 1) * latency.size() / segments)),
                0.99)
                .value);
    std::string segment_text;
    for (double v : segment_p99)
        segment_text.append(" ").append(std::to_string(v));
    // Per-kind request count and mean execution wall of the open loop:
    // the cost share each query kind carries under the workload's mix.
    static const char *const kind_names[] = {
        "q1", "q2-hash", "q2-euclid", "q2-dtw", "q2-fullscan", "q3"};
    double kind_count[6] = {};
    double kind_ms[6] = {};
    for (const Request *request : open_done) {
        const auto k =
            static_cast<std::size_t>(source.at(request->query).kind);
        kind_count[k] += 1.0;
        kind_ms[k] += request->execMs;
    }
    std::string kind_text;
    for (std::size_t k = 0; k < 6; ++k)
        if (kind_count[k] > 0.0)
            kind_text.append(" ")
                .append(kind_names[k])
                .append("=")
                .append(std::to_string(
                    static_cast<std::size_t>(kind_count[k])))
                .append("x")
                .append(std::to_string(kind_ms[k] / kind_count[k]))
                .append("ms");
    ctx.note("serve-kinds", "open-loop count x mean exec:" + kind_text);
    // What the slowest 1% of open-loop requests spent their time on:
    // tells a compute-bound tail from one made of waiting.
    std::vector<std::size_t> order(open_done.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return latency[a] > latency[b];
              });
    const std::size_t tail_n = std::max<std::size_t>(1, order.size() / 100);
    double tail_lag = 0.0;
    double tail_queue = 0.0;
    double tail_exec = 0.0;
    for (std::size_t i = 0; i < std::min(tail_n, order.size()); ++i) {
        const Request &request = *open_done[order[i]];
        tail_lag += msBetween(request.due, request.submitted);
        tail_queue += std::max(0.0, request.serveMs - request.execMs);
        tail_exec += request.execMs;
    }
    const double tail_d = static_cast<double>(tail_n);
    ctx.note("serve-tail",
             "slowest " + std::to_string(tail_n) +
                 " open-loop requests, mean ms: generator lag " +
                 std::to_string(tail_lag / tail_d) + ", queue wait " +
                 std::to_string(tail_queue / tail_d) + ", execution " +
                 std::to_string(tail_exec / tail_d));
    ctx.note("serve-latency",
             "p50 " + std::to_string(median(latency)) + " p90 " +
                 std::to_string(tailPercentile(latency, 0.90).value) +
                 " p95 " +
                 std::to_string(tailPercentile(latency, 0.95).value) +
                 " p99 " + std::to_string(p99.value) + " p99.9 " +
                 std::to_string(tailPercentile(latency, 0.999).value) +
                 " ms");
    ctx.note("serve",
             "open-loop " + std::to_string(lag.size()) +
                 " requests at " + std::to_string(spec.rateQps) +
                 " qps, generator lag p99 " +
                 std::to_string(tailPercentile(lag, 0.99).value) +
                 " ms, latency samples " +
                 std::to_string(latency.size()) + " (p99 has " +
                 std::to_string(p99.beyond) + " beyond, " +
                 std::to_string(segments) + " segments, p99 ms" +
                 segment_text + "); saturation " +
                 std::to_string(max_qps) + " qps; server histogram p99 " +
                 std::to_string(server_totals.p99()) +
                 " ms (timed from submit, cross-check only)");

    if (!ctx.trace) {
        ctx.report.add("serve_p50_ms", "ms", median(latency));
        ctx.report.add("serve_p99_ms", "ms", p99.value);
        ctx.report.add("serve_max_qps", "1/s", max_qps);
        return totals;
    }

    // Per-layer metrics of the traced run.
    Report &out = ctx.report;
    std::vector<double> admit_us = ctx.spans.durationsMs(Stage::Admission);
    for (double &v : admit_us)
        v *= 1e3;
    std::vector<double> queue_wait;
    std::vector<double> exec;
    std::vector<double> fanout;
    std::vector<double> skew;
    std::vector<double> shard_max;
    double scanned = 0.0;
    double matched = 0.0;
    for (const Request *request : open_done) {
        queue_wait.push_back(
            std::max(0.0, request->serveMs - request->execMs));
        exec.push_back(request->execMs);
        fanout.push_back(
            std::max(0.0, request->execMs - request->maxShardMs));
        shard_max.push_back(request->maxShardMs);
        if (request->medianShardMs > 0.0)
            skew.push_back(request->maxShardMs / request->medianShardMs);
        scanned += static_cast<double>(request->scanned);
        matched += static_cast<double>(request->matched);
    }
    const double served = static_cast<double>(open_done.size());
    out.add("serve.admit_us.p99", "us",
            tailPercentile(admit_us, 0.99).value);
    out.add("serve.queue_wait_ms.p50", "ms", median(queue_wait));
    out.add("serve.queue_wait_ms.p99", "ms",
            tailPercentile(queue_wait, 0.99).value);
    out.add("serve.plan_hit_frac", "fraction", plan_stats.hitRate());
    out.add("serve.plan_evictions", "count",
            static_cast<double>(plan_stats.evictions));
    out.add("serve.batch_size.mean", "count", mean(batch_sizes));
    out.add("serve.histogram_p99_ms", "ms", server_totals.p99());
    out.add("app.compile_us.p50", "us", median(compile_us));
    out.add("app.exec_ms.p50", "ms", median(exec));
    out.add("app.exec_ms.p99", "ms", tailPercentile(exec, 0.99).value);
    out.add("app.shard_ms.p99", "ms",
            tailPercentile(shard_max, 0.99).value);
    out.add("app.shard_skew", "ratio", median(skew));
    out.add("app.fanout_ms.p50", "ms", median(fanout));
    out.add("app.pool_fanout_ms.p50", "ms", median(pool.fanoutMs));
    out.add("app.pool_speedup", "ratio",
            pool.pooledMs > 0.0 ? pool.inlineMs / pool.pooledMs : 0.0);
    out.add("app.dedup_frac", "fraction", dedup_frac);
    out.add("app.scanned_per_query", "count",
            served > 0 ? scanned / served : 0.0);
    out.add("app.match_frac", "fraction",
            scanned > 0 ? matched / scanned : 0.0);
    const double windows =
        static_cast<double>(spec.nodes * spec.windowsPerNode);
    out.add("app.ingest_windows_per_s", "1/s", windows / median(ingests));
    out.add("app.store.range_us.p50", "us", median(layers.rangeUs));
    out.add("app.store.candidates_us.p50", "us",
            median(layers.candidatesUs));
    out.add("app.store.gather_ns_per_row", "ns",
            layers.gatherRows ? layers.gatherMs * 1e6 /
                                    static_cast<double>(layers.gatherRows)
                              : 0.0);
    out.add("lsh.hash_us_per_window", "us", hash_us);
    out.add("signal.dtw_cmps_per_query", "count",
            meanComparisons(requests, source, true));
    out.add("signal.dtw_ns_per_cmp", "ns",
            layers.dtwRows ? layers.dtwMs * 1e6 /
                                 static_cast<double>(layers.dtwRows)
                           : 0.0);
    out.add("signal.euclid_rows_per_query", "count",
            meanComparisons(requests, source, false));
    out.add("signal.euclid_ns_per_row", "ns",
            layers.euclidRows ? layers.euclidMs * 1e6 /
                                    static_cast<double>(layers.euclidRows)
                              : 0.0);
    out.add("bench.gen_lag_ms.p99", "ms", tailPercentile(lag, 0.99).value);
    out.add("bench.trace_overhead_frac", "fraction",
            max_qps > 0.0 ? qps_untraced / max_qps - 1.0 : 0.0);
    return totals;
}

} // namespace e2e
