#include "obs/event.h"

namespace catnap {

const char *
event_kind_name(EventKind k)
{
    switch (k) {
      case EventKind::kFlitInject:      return "flit_inject";
      case EventKind::kFlitEject:       return "flit_eject";
      case EventKind::kSubnetSelect:    return "subnet_select";
      case EventKind::kEscalation:      return "escalation";
      case EventKind::kLcsSet:          return "lcs_set";
      case EventKind::kLcsClear:        return "lcs_clear";
      case EventKind::kRcsSet:          return "rcs_set";
      case EventKind::kRcsClear:        return "rcs_clear";
      case EventKind::kRouterIdleDetect:return "router_idle_detect";
      case EventKind::kRouterSleep:     return "router_sleep";
      case EventKind::kRouterWakeBegin: return "router_wake_begin";
      case EventKind::kRouterActive:    return "router_active";
      case EventKind::kFaultInjected:   return "fault_injected";
      case EventKind::kSubnetHealth:    return "subnet_health";
      case EventKind::kWakeRetry:       return "wake_retry";
      case EventKind::kPacketTimeout:   return "packet_timeout";
      case EventKind::kPacketRetransmit:return "packet_retransmit";
      case EventKind::kPacketDrop:      return "packet_drop";
    }
    return "?";
}

} // namespace catnap
