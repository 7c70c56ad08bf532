#include "proxy/log_record.h"

namespace syrwatch::proxy {

std::string_view to_string(TrafficClass c) noexcept {
  switch (c) {
    case TrafficClass::kAllowed: return "allowed";
    case TrafficClass::kCensored: return "censored";
    case TrafficClass::kError: return "error";
    case TrafficClass::kProxied: return "proxied";
  }
  return "allowed";
}

LogRecordView view_of(const LogRecord& record) noexcept {
  LogRecordView view;
  view.time = record.time;
  view.proxy_index = record.proxy_index;
  view.user_hash = record.user_hash;
  view.user_agent = record.user_agent;
  view.method = record.method;
  view.scheme = record.url.scheme;
  view.host = record.url.host;
  view.port = record.url.port;
  view.path = record.url.path;
  view.query = record.url.query;
  view.categories = record.categories;
  view.filter_result = record.filter_result;
  view.exception = record.exception;
  view.status = record.status;
  view.dest_ip = record.dest_ip;
  return view;
}

void assign(LogRecord& record, const LogRecordView& view) {
  record.time = view.time;
  record.proxy_index = view.proxy_index;
  record.user_hash = view.user_hash;
  record.user_agent.assign(view.user_agent);
  record.method.assign(view.method);
  record.url.scheme = view.scheme;
  record.url.host.assign(view.host);
  record.url.port = view.port;
  record.url.path.assign(view.path);
  record.url.query.assign(view.query);
  record.categories.assign(view.categories);
  record.filter_result = view.filter_result;
  record.exception = view.exception;
  record.status = view.status;
  record.dest_ip = view.dest_ip;
}

TrafficClass classify(const LogRecord& record) noexcept {
  if (record.filter_result == FilterResult::kProxied)
    return TrafficClass::kProxied;
  return classify_by_exception(record.filter_result, record.exception);
}

TrafficClass classify_by_exception(FilterResult result,
                                   ExceptionId exception) noexcept {
  (void)result;
  if (is_policy_exception(exception)) return TrafficClass::kCensored;
  if (is_error_exception(exception)) return TrafficClass::kError;
  return TrafficClass::kAllowed;
}

}  // namespace syrwatch::proxy
