#include "runtime/executor.h"

namespace jecb {

std::string_view TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess: return "inproc";
    case TransportKind::kUnixSocket: return "unix";
    case TransportKind::kTcpSocket: return "tcp";
  }
  return "unknown";
}

}  // namespace jecb
