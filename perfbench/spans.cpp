#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

double
clockSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

SpanRecorder::Scope::Scope(SpanRecorder *rec, const char *name)
    : rec_(rec)
{
    if (!rec_)
        return;
    Record r;
    r.name = name;
    r.id = static_cast<uint32_t>(rec_->records_.size());
    r.parent = rec_->open_.empty()
                   ? 0
                   : rec_->records_[rec_->open_.back()].id + 1;
    r.group = rec_->group_;
    idx_ = rec_->records_.size();
    rec_->records_.push_back(std::move(r));
    rec_->open_.push_back(idx_);
    rec_->records_[idx_].start = clockSec();
}

SpanRecorder::Scope::~Scope()
{
    if (!rec_)
        return;
    rec_->records_[idx_].end = clockSec();
    rec_->open_.pop_back();
}

std::map<std::string, SpanRecorder::Stat>
SpanRecorder::summarize() const
{
    std::vector<double> childSeconds(records_.size(), 0.0);
    for (const Record &r : records_) {
        if (r.parent > 0)
            childSeconds[r.parent - 1] += r.end - r.start;
    }
    std::map<std::string, Stat> out;
    for (const Record &r : records_) {
        Stat &s = out[r.name];
        double d = r.end - r.start;
        s.seconds.push_back(d);
        s.totalSeconds += d;
        s.selfSeconds += d - childSeconds[r.id];
    }
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double t0 = records_.empty() ? 0 : records_.front().start;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                     "\"group\": %llu, \"start_us\": %.3f, "
                     "\"dur_us\": %.3f}%s\n",
                     r.name.c_str(), r.id, r.parent,
                     static_cast<unsigned long long>(r.group),
                     (r.start - t0) * 1e6, (r.end - r.start) * 1e6,
                     i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
