#include "obs/metrics.hh"

#include <ostream>

#include "common/logging.hh"

namespace nisqpp::obs {

bool
maskedName(const std::string &name)
{
    return name.rfind("timing.", 0) == 0 ||
           name.rfind("sched.", 0) == 0 ||
           name.rfind("ckpt.", 0) == 0;
}

void
MetricSet::add(const std::string &name, std::uint64_t delta)
{
    Scalar &s = scalars_[name];
    if (s.kind != Kind::Counter)
        panic("MetricSet: counter/gauge kind clash on " + name);
    s.value += delta;
}

void
MetricSet::maxGauge(const std::string &name, std::uint64_t value)
{
    auto [it, inserted] = scalars_.emplace(name, Scalar{});
    Scalar &s = it->second;
    if (inserted) {
        s.kind = Kind::Gauge;
        s.value = value;
        return;
    }
    if (s.kind != Kind::Gauge)
        panic("MetricSet: counter/gauge kind clash on " + name);
    if (value > s.value)
        s.value = value;
}

void
MetricSet::record(const std::string &name, std::size_t value,
                  std::size_t maxValue)
{
    auto [it, inserted] = histograms_.emplace(name, HistogramEntry{});
    HistogramEntry &entry = it->second;
    if (inserted)
        entry.hist = Histogram(maxValue);
    entry.hist.add(value);
    entry.sum += static_cast<std::uint64_t>(value);
}

void
MetricSet::mergeHistogram(const std::string &name,
                          const Histogram &hist, std::uint64_t sum)
{
    auto [it, inserted] = histograms_.emplace(name, HistogramEntry{});
    if (inserted)
        it->second.hist = hist;
    else
        it->second.hist.merge(hist);
    it->second.sum += sum;
}

void
MetricSet::merge(const MetricSet &other)
{
    for (const auto &[name, theirs] : other.scalars_) {
        auto [it, inserted] = scalars_.emplace(name, theirs);
        if (inserted)
            continue;
        Scalar &mine = it->second;
        if (mine.kind != theirs.kind)
            panic("MetricSet: counter/gauge kind clash on " + name);
        if (mine.kind == Kind::Counter)
            mine.value += theirs.value;
        else if (theirs.value > mine.value)
            mine.value = theirs.value;
    }
    for (const auto &[name, theirs] : other.histograms_) {
        auto [it, inserted] = histograms_.emplace(name, theirs);
        if (inserted)
            continue;
        it->second.hist.merge(theirs.hist);
        it->second.sum += theirs.sum;
    }
}

std::uint64_t
MetricSet::value(const std::string &name) const
{
    const auto it = scalars_.find(name);
    return it == scalars_.end() ? 0 : it->second.value;
}

const MetricSet::HistogramEntry *
MetricSet::histogram(const std::string &name) const
{
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
MetricSet::forEachScalar(
    const std::function<void(const std::string &, bool, std::uint64_t)>
        &fn) const
{
    for (const auto &[name, scalar] : scalars_)
        fn(name, scalar.kind == Kind::Gauge, scalar.value);
}

void
MetricSet::forEachHistogram(
    const std::function<void(const std::string &, const HistogramEntry &)>
        &fn) const
{
    for (const auto &[name, entry] : histograms_)
        fn(name, entry);
}

void
MetricSet::writeScalarsJson(std::ostream &os, bool masked) const
{
    os << '{';
    bool first = true;
    for (const auto &[name, scalar] : scalars_) {
        if (maskedName(name) != masked)
            continue;
        if (!first)
            os << ',';
        first = false;
        os << '"' << name << "\":" << scalar.value;
    }
    os << '}';
}

void
MetricSet::writeHistogramsJson(std::ostream &os) const
{
    os << '{';
    bool first = true;
    for (const auto &[name, entry] : histograms_) {
        if (maskedName(name))
            continue;
        if (!first)
            os << ',';
        first = false;
        os << '"' << name << "\":{\"count\":" << entry.hist.total()
           << ",\"sum\":" << entry.sum
           << ",\"overflow\":" << entry.hist.overflow()
           << ",\"bins\":{";
        bool firstBin = true;
        for (std::size_t b = 0; b < entry.hist.numBins(); ++b) {
            if (entry.hist.bin(b) == 0)
                continue;
            if (!firstBin)
                os << ',';
            firstBin = false;
            os << '"' << b << "\":" << entry.hist.bin(b);
        }
        os << "}}";
    }
    os << '}';
}

} // namespace nisqpp::obs
