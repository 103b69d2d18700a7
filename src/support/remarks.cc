#include "support/remarks.h"

#include <algorithm>

#include "support/logging.h"
#include "support/metrics.h"
#include "support/string_utils.h"

namespace treegion::support {

const char *
remarkKindName(RemarkKind kind)
{
    switch (kind) {
      case RemarkKind::BlockAccepted: return "block-accepted";
      case RemarkKind::GrowthStopped: return "growth-stopped";
      case RemarkKind::RegionFormed: return "region-formed";
      case RemarkKind::TailDuplicated: return "tail-duplicated";
      case RemarkKind::TailDupRefused: return "tail-dup-refused";
      case RemarkKind::TailDupStopped: return "tail-dup-stopped";
      case RemarkKind::Renamed: return "renamed";
      case RemarkKind::Speculated: return "speculated";
      case RemarkKind::Elided: return "elided";
      case RemarkKind::ExitMerged: return "exit-merged";
      case RemarkKind::TieBreak: return "tie-break";
      case RemarkKind::ExitCost: return "exit-cost";
    }
    TG_PANIC("bad RemarkKind");
}

const char *
remarkPassName(RemarkKind kind)
{
    switch (kind) {
      case RemarkKind::BlockAccepted:
      case RemarkKind::GrowthStopped:
      case RemarkKind::RegionFormed:
        return "formation";
      case RemarkKind::TailDuplicated:
      case RemarkKind::TailDupRefused:
      case RemarkKind::TailDupStopped:
        return "tail-dup";
      case RemarkKind::Renamed:
      case RemarkKind::Speculated:
      case RemarkKind::Elided:
      case RemarkKind::ExitMerged:
      case RemarkKind::TieBreak:
        return "sched";
      case RemarkKind::ExitCost:
        return "perf";
    }
    TG_PANIC("bad RemarkKind");
}

bool
parseRemarkKind(const std::string &name, RemarkKind &out)
{
    for (const RemarkKind kind : kAllRemarkKinds) {
        if (name == remarkKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::string
Remark::toJson() const
{
    std::string out = std::string("{\"pass\":\"") + remarkPassName(kind) +
                      "\",\"kind\":\"" + remarkKindName(kind) +
                      "\",\"fn\":\"";
    appendJsonEscaped(out, function);
    out += '"';
    if (block >= 0) {
        out += ",\"block\":";
        appendInt(out, block);
    }
    if (op >= 0) {
        out += ",\"op\":";
        appendInt(out, op);
    }
    if (!args.empty()) {
        out += ",\"args\":{";
        appendJsonArgs(out, args);
        out += '}';
    }
    out += '}';
    return out;
}

bool
parseRemarkJson(const std::string &line, Remark &out,
                std::string *error)
{
    out = Remark{};
    FlatJsonReader in(line, "remark", error);
    std::string pass;
    const auto member = [&](const std::string &key) {
        if (key == "pass")
            return in.string(pass);
        if (key == "kind") {
            std::string name;
            if (!in.string(name))
                return false;
            if (!parseRemarkKind(name, out.kind))
                return in.fail("unknown kind '" + name + "'");
            return true;
        }
        if (key == "fn")
            return in.string(out.function);
        if (key == "block" || key == "op") {
            JsonArg num;
            if (!in.number(num))
                return false;
            if (num.type != JsonArg::Type::Int || num.i < 0)
                return in.fail("'" + key +
                               "' must be a non-negative integer");
            (key == "block" ? out.block : out.op) = num.i;
            return true;
        }
        if (key == "args")
            return in.args(out.args);
        return in.fail("unknown field '" + key + "'");
    };
    if (!in.readObject(member))
        return false;
    for (const char *field : {"pass", "kind", "fn"}) {
        if (!in.seen(field))
            return in.fail(std::string("missing required field '") +
                           field + "'");
    }
    if (pass != remarkPassName(out.kind)) {
        return in.fail("pass '" + pass + "' does not match kind '" +
                       remarkKindName(out.kind) + "' (expected '" +
                       remarkPassName(out.kind) + "')");
    }
    return true;
}

std::string
RemarkStream::toJsonLines() const
{
    std::string out;
    for (const Remark &r : remarks_) {
        out += r.toJson();
        out += '\n';
    }
    return out;
}

void
RemarkStream::foldInto(MetricsRegistry &metrics) const
{
    for (const Remark &r : remarks_) {
        std::string name = std::string("remarks_") +
                           remarkKindName(r.kind);
        std::replace(name.begin(), name.end(), '-', '_');
        metrics.add(name);
    }
    metrics.add("remarks_total", remarks_.size());
}

namespace {

thread_local RemarkStream *t_current_stream = nullptr;

} // namespace

RemarkStream *
currentRemarkStream()
{
    return t_current_stream;
}

RemarkScope::RemarkScope(RemarkStream *stream) : prev_(t_current_stream)
{
    t_current_stream = stream;
}

RemarkScope::~RemarkScope()
{
    t_current_stream = prev_;
}

} // namespace treegion::support
