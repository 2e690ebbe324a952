/**
 * @file
 * The benchmark's own span recorder.
 *
 * Spans wrap the benchmark's calls into each layer's public functions
 * (`svc.swap_rpc` around Client::swap, `pnr.place` around pnr::place,
 * ...). Each span keeps its name, start, end, parent span and a group
 * id shared by every span of one unit of work (one edit, one build,
 * one design run). Spans stay in memory and are written once, when the
 * run ends. Nothing inside the program is instrumented, and a disabled
 * recorder reads no clock at all.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    struct Record
    {
        std::string name;
        uint32_t id = 0;
        /** Enclosing span's id + 1; 0 for a root span. */
        uint32_t parent = 0;
        uint64_t group = 0;
        double start = 0;
        double end = 0;
    };

    /** Durations and self times of all spans with one name. */
    struct Stat
    {
        std::vector<double> seconds;
        double totalSeconds = 0;
        /** Duration minus the time covered by child spans. */
        double selfSeconds = 0;
    };

    /** RAII span; a null recorder makes it a no-op. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        size_t idx_ = 0;
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    /** Group id stamped on spans opened from now on. */
    void setGroup(uint64_t group) { group_ = group; }

    Scope span(const char *name) { return Scope(enabled_ ? this : nullptr, name); }

    const std::vector<Record> &records() const { return records_; }
    std::map<std::string, Stat> summarize() const;

    /** Write every span as JSON; false when the file cannot be
     * written. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    uint64_t group_ = 0;
    std::vector<Record> records_;
    std::vector<size_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
