/**
 * @file
 * Schedule generation and text round-trip.
 */

#include "schedule.h"

#include <cstdio>
#include <sstream>

#include "sim/logging.h"

namespace hwgc::fuzz
{

namespace
{

/** splitmix64 stream, the same mixing test_diff_reachability uses. */
struct Mix
{
    explicit Mix(std::uint64_t seed) : state(seed + 0x9e3779b97f4a7c15ULL)
    {
    }

    std::uint64_t
    operator()()
    {
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t state;
};

} // namespace

const char *
shapeName(Shape shape)
{
    switch (shape) {
      case Shape::Random: return "random";
      case Shape::Chain: return "chain";
      case Shape::SpillStorm: return "spillstorm";
      case Shape::Sparse: return "sparse";
    }
    return "?";
}

bool
shapeFromName(const std::string &name, Shape &out)
{
    for (const Shape shape : {Shape::Random, Shape::Chain,
                              Shape::SpillStorm, Shape::Sparse}) {
        if (name == shapeName(shape)) {
            out = shape;
            return true;
        }
    }
    return false;
}

unsigned
Schedule::collects() const
{
    unsigned n = 0;
    for (const Op &op : ops) {
        if (op.kind == Op::Kind::Collect) {
            ++n;
        }
    }
    return n;
}

Schedule
generate(std::uint64_t seed)
{
    Mix mix(seed);
    Schedule schedule;
    schedule.seed = seed;

    // Mostly random shapes with a steady diet of adversarial ones.
    const std::uint64_t pick = mix() % 8;
    schedule.shape = pick == 5 ? Shape::Chain
        : pick == 6            ? Shape::SpillStorm
        : pick == 7            ? Shape::Sparse
                               : Shape::Random;

    switch (schedule.shape) {
      case Shape::Random:
        schedule.liveObjects = 200 + mix() % 600;
        schedule.garbageObjects = mix() % 400;
        break;
      case Shape::Chain:
        schedule.liveObjects = 300 + mix() % 700;
        schedule.garbageObjects = 0;
        break;
      case Shape::SpillStorm:
        schedule.liveObjects = 200 + mix() % 300;
        schedule.garbageObjects = mix() % 200;
        break;
      case Shape::Sparse:
        schedule.liveObjects = 150 + mix() % 250;
        schedule.garbageObjects = mix() % 150;
        break;
    }

    // 2–3 pauses with 0–2 mutate steps in between: enough churn to
    // exercise sweep → reallocate → re-mark across every universe
    // while keeping one seed cheap enough for a 200-seed CI sweep.
    const unsigned pauses = 2 + unsigned(mix() % 2);
    for (unsigned p = 0; p < pauses; ++p) {
        if (p > 0) {
            const unsigned mutates = unsigned(mix() % 3);
            for (unsigned m = 0; m < mutates; ++m) {
                Op op;
                op.kind = Op::Kind::Mutate;
                op.churnPermille = 50 + unsigned(mix() % 350);
                schedule.ops.push_back(op);
            }
        }
        schedule.ops.push_back({Op::Kind::Collect, 0});
    }
    return schedule;
}

workload::GraphParams
graphParams(const Schedule &schedule)
{
    Mix mix(schedule.seed * 0x5851f42d4c957f2dULL + 1);
    workload::GraphParams p;
    p.seed = schedule.seed;

    switch (schedule.shape) {
      case Shape::Random:
        p.numRoots = 1 + unsigned(mix() % 48);
        p.avgRefs = 0.5 + double(mix() % 600) / 100.0;
        p.maxRefs = 4 + std::uint32_t(mix() % 20);
        p.minRefs = std::uint32_t(mix() % 2);
        p.arrayFraction = double(mix() % 40) / 100.0;
        p.shareProb = double(mix() % 70) / 100.0;
        p.cycleProb = double(mix() % 30) / 100.0;
        p.largeFraction = double(mix() % 5) / 100.0;
        break;
      case Shape::Chain:
        // A single root and out-degree exactly 1 everywhere: the
        // build walks one pointer chain liveObjects deep, leaving the
        // marker no parallelism to mine.
        p.numRoots = 1;
        p.minRefs = 1;
        p.maxRefs = 1;
        p.avgRefs = 1.0;
        p.avgPayloadWords = 2.0;
        p.maxPayloadWords = 4;
        p.arrayFraction = 0.0;
        p.shareProb = 0.0;
        p.cycleProb = 0.0;
        p.largeFraction = 0.0;
        break;
      case Shape::SpillStorm:
        // Array-heavy breadth: each array dumps up to maxArrayLen
        // references at once, overflowing small mark queues into the
        // spill path.
        p.numRoots = 4 + unsigned(mix() % 8);
        p.minRefs = 1;
        p.avgRefs = 2.0;
        p.maxRefs = 8;
        p.arrayFraction = 0.5;
        p.avgArrayLen = 48.0;
        p.maxArrayLen = 256;
        p.shareProb = 0.2;
        p.largeFraction = 0.02;
        break;
      case Shape::Sparse:
        // Dead padding after every allocation spreads the live set
        // across many pages; maxPayloadWords doubles as pad size.
        p.numRoots = 2 + unsigned(mix() % 14);
        p.avgRefs = 2.0 + double(mix() % 200) / 100.0;
        p.maxRefs = 8;
        p.maxPayloadWords = 32;
        p.arrayFraction = 0.1;
        p.shareProb = 0.3;
        p.sparsePadObjects = 3 + (mix() % 4);
        break;
    }

    if (schedule.liveObjects != 0) {
        p.liveObjects = schedule.liveObjects;
    }
    p.garbageObjects = schedule.garbageObjects;
    return p;
}

std::string
toText(const Schedule &schedule)
{
    std::ostringstream os;
    os << "# hwgc_fuzz schedule\n";
    os << "version 1\n";
    os << "seed " << schedule.seed << "\n";
    os << "shape " << shapeName(schedule.shape) << "\n";
    os << "live " << schedule.liveObjects << "\n";
    os << "garbage " << schedule.garbageObjects << "\n";
    for (const Op &op : schedule.ops) {
        if (op.kind == Op::Kind::Mutate) {
            os << "mutate " << op.churnPermille << "\n";
        } else {
            os << "collect\n";
        }
    }
    return os.str();
}

bool
fromText(const std::string &text, Schedule &out, std::string *err)
{
    const auto fail = [err](unsigned line, const std::string &what) {
        if (err != nullptr) {
            *err = "line " + std::to_string(line) + ": " + what;
        }
        return false;
    };

    Schedule schedule;
    bool saw_version = false;
    std::istringstream is(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        // Strip comments and whitespace-only lines.
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.resize(hash);
        }
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key)) {
            continue;
        }
        if (key == "version") {
            std::uint64_t v = 0;
            if (!(ls >> v) || v != 1) {
                return fail(lineno, "unsupported schedule version");
            }
            saw_version = true;
        } else if (key == "seed") {
            if (!(ls >> schedule.seed)) {
                return fail(lineno, "bad seed");
            }
        } else if (key == "shape") {
            std::string name;
            if (!(ls >> name) || !shapeFromName(name, schedule.shape)) {
                return fail(lineno, "unknown shape '" + name + "'");
            }
        } else if (key == "live") {
            if (!(ls >> schedule.liveObjects)) {
                return fail(lineno, "bad live count");
            }
        } else if (key == "garbage") {
            if (!(ls >> schedule.garbageObjects)) {
                return fail(lineno, "bad garbage count");
            }
        } else if (key == "mutate") {
            Op op;
            op.kind = Op::Kind::Mutate;
            if (!(ls >> op.churnPermille) || op.churnPermille > 1000) {
                return fail(lineno, "bad mutate churn (permille 0..1000)");
            }
            schedule.ops.push_back(op);
        } else if (key == "collect") {
            schedule.ops.push_back({Op::Kind::Collect, 0});
        } else {
            return fail(lineno, "unknown keyword '" + key + "'");
        }
        std::string extra;
        if (ls >> extra) {
            return fail(lineno, "trailing token '" + extra + "'");
        }
    }
    if (!saw_version) {
        return fail(0, "missing 'version 1' header");
    }
    if (schedule.collects() == 0) {
        return fail(0, "schedule has no collect op");
    }
    out = std::move(schedule);
    return true;
}

bool
loadFile(const std::string &path, Schedule &out, std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        if (err != nullptr) {
            *err = "cannot open '" + path + "'";
        }
        return false;
    }
    std::string text;
    char block[4096];
    std::size_t n;
    while ((n = std::fread(block, 1, sizeof(block), f)) > 0) {
        text.append(block, n);
    }
    std::fclose(f);
    if (!fromText(text, out, err)) {
        if (err != nullptr) {
            *err = path + ": " + *err;
        }
        return false;
    }
    return true;
}

bool
saveFile(const std::string &path, const Schedule &schedule)
{
    std::string error;
    if (!writeWholeFile(path, toText(schedule), error)) {
        warn("fuzz: cannot write schedule '%s': %s", path.c_str(),
             error.c_str());
        return false;
    }
    return true;
}

} // namespace hwgc::fuzz
